#include "api.hh"

namespace lib
{

int
neverCalled(int x)
{
    return neverCalled(x - 1);
}

int
calledFromTestsOnly(int x)
{
    return x;
}

int
calledFromExampleOnly(int x)
{
    return x;
}

int
calledFromBenchmarkOnly(int x)
{
    return x;
}

int
calledInsideItsCcOnly(int x)
{
    return x + 1;
}

int
entryPoint(int x)
{
    return calledInsideItsCcOnly(x);
}

int
Lonely::value() const
{
    return n_;
}

Lonely
Lonely::bumped() const
{
    Lonely next = *this;
    ++next.n_;
    return next;
}

} // namespace lib
