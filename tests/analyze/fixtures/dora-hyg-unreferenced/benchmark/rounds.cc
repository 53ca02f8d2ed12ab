// Fixture: benchmark/ is a reference-only root.
#include "api.hh"
int round() { return lib::calledFromBenchmarkOnly(3); }
