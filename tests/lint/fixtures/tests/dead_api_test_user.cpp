// Fixture: the test-side caller of one production symbol and one
// oracle; only the oracle counts as used (see the two headers).
#include "energy/test_only_api.hpp"
#include "ref/fixture_oracle.hpp"

int fixture_dead_api_test_user() {
  return drift::energy::fixture_test_only_energy(1) -
         drift::ref::fixture_oracle_energy(1);
}
