// Fixture: a bench caller.
#include "api.hh"
int run() { return lib::entryPoint(2); }
