// Fixture: tests are no reference.
#include "api.hh"
int check() { return lib::calledFromTestsOnly(1) + lib::Lonely{}.value(); }
