// Fixture: `dead-api` scope — fixture_test_only_energy is referenced
// only from fixtures/tests/, and a test's reference keeps no production
// symbol alive, so it must be reported.
#pragma once

namespace drift::energy {

int fixture_test_only_energy(int joules);

}  // namespace drift::energy
