// Fixture: an oracle that calls one production symbol and defines a
// namesake of another (see energy/oracle_only_api.hpp).
namespace drift::ref {

int fixture_oracle_named_energy(int joules) { return joules + 1; }

int fixture_oracle_user(int joules) {
  return drift::energy::fixture_oracle_called_energy(joules) +
         fixture_oracle_named_energy(joules);
}

}  // namespace drift::ref
