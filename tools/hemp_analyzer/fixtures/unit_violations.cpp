// hemp_analyzer fixture: raw-double physical quantities in .cpp signatures,
// one of them split across lines.  In a .cpp only signatures are checked.
namespace fixture {

double input_power(double bus_v, double load_current) {
  return bus_v * load_current;
}

double harvest_energy(double panel_voltage,
                      double panel_current) {
  return panel_voltage * panel_current;
}

int plain_counter(int ticks) { return ticks + 1; }

}  // namespace fixture
