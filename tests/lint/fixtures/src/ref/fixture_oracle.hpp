// Fixture: `dead-api` scope — a src/ref/ oracle exists for its tests,
// so the reference from fixtures/tests/ keeps fixture_oracle_energy out
// of the report.
#pragma once

namespace drift::ref {

int fixture_oracle_energy(int joules);

}  // namespace drift::ref
