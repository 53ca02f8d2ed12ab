// Fixture: examples/ (*.cpp included) is a reference-only root.
#include "api.hh"
int main() { return lib::calledFromExampleOnly(0); }
