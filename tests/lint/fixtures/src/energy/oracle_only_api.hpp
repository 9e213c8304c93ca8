// Fixture: `dead-api` scope — a src/ref/ oracle keeps no production
// symbol alive.  fixture_oracle_called_energy is called only from
// fixtures/src/ref/fixture_oracle_user.cpp, and fixture_oracle_named_energy
// only shares its name with a function defined there; both must be
// reported.
#pragma once

namespace drift::energy {

int fixture_oracle_called_energy(int joules);

int fixture_oracle_named_energy(int joules);

}  // namespace drift::energy
