// Fixture: namespace-scope declarations and who references them.
#ifndef FIXTURE_API_HH
#define FIXTURE_API_HH

namespace lib
{

int neverCalled(int x);

int calledFromTestsOnly(int x);

int calledFromExampleOnly(int x);

int calledFromBenchmarkOnly(int x);

int calledInsideItsCcOnly(int x);

int entryPoint(int x);

struct Lonely
{
    int value() const;
    Lonely bumped() const;
    int n_ = 0;
};

// dora:test-only(test hook: resets state between cases)
void resetForTests();

// dora:test-only()
void emptyReason();

int suppressed(int x);  // NOLINT(dora-hyg-unreferenced)

} // namespace lib

#endif
