/** @file Tests for trace-file workloads. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/logging.hh"
#include "workload/trace_workload.hh"
#include "workload/workload.hh"

using namespace mellowsim;

namespace
{

/** RAII temp file. */
class TempFile
{
  public:
    explicit TempFile(const std::string &contents = "")
    {
        char name[] = "/tmp/mellowsim_trace_XXXXXX";
        int fd = mkstemp(name);
        if (fd >= 0)
            close(fd);
        _path = name;
        if (!contents.empty()) {
            std::ofstream out(_path);
            out << contents;
        }
    }
    ~TempFile() { std::remove(_path.c_str()); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

} // namespace

TEST(TraceWorkload, ParsesAllKinds)
{
    TempFile f("# header comment\n"
               "10 R 0x1000\n"
               "0 W 2000  # trailing comment\n"
               "\n"
               "5 D 0x40\n"
               "0 X 0x40\n");
    TraceWorkload w(f.path());
    EXPECT_EQ(w.traceLength(), 4u);

    Op a = w.next();
    EXPECT_EQ(a.gap, 10u);
    EXPECT_FALSE(a.isWrite);
    EXPECT_FALSE(a.dependsOnPrev);
    EXPECT_EQ(a.addr, 0x1000u);

    Op b = w.next();
    EXPECT_TRUE(b.isWrite);
    EXPECT_EQ(b.addr, 0x2000u); // hex without prefix

    Op c = w.next();
    EXPECT_FALSE(c.isWrite);
    EXPECT_TRUE(c.dependsOnPrev);

    Op d = w.next();
    EXPECT_TRUE(d.isWrite);
    EXPECT_TRUE(d.dependsOnPrev);
}

TEST(TraceWorkload, ReplaysCyclically)
{
    TempFile f("1 R 0x40\n2 W 0x80\n");
    TraceWorkload w(f.path());
    EXPECT_EQ(w.cycles(), 0u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(w.next().addr, 0x40u);
        EXPECT_EQ(w.next().addr, 0x80u);
    }
    EXPECT_EQ(w.cycles(), 5u);
}

TEST(TraceWorkload, MissingFileIsFatal)
{
    EXPECT_THROW(TraceWorkload("/nonexistent/trace.txt"), FatalError);
}

TEST(TraceWorkload, EmptyTraceIsFatal)
{
    TempFile f("# nothing but comments\n\n");
    EXPECT_THROW(TraceWorkload{f.path()}, FatalError);
}

TEST(TraceWorkload, MalformedLinesAreFatal)
{
    {
        TempFile f("1 Q 0x40\n");
        EXPECT_THROW(TraceWorkload{f.path()}, FatalError);
    }
    {
        TempFile f("notanumber R 0x40\n");
        EXPECT_THROW(TraceWorkload{f.path()}, FatalError);
    }
    {
        TempFile f("1 R zzz\n");
        EXPECT_THROW(TraceWorkload{f.path()}, FatalError);
    }
    {
        TempFile f("1 R\n");
        EXPECT_THROW(TraceWorkload{f.path()}, FatalError);
    }
}

TEST(TraceWorkload, NegativeAndOverflowingAddressesAreFatal)
{
    // strtoull would wrap "-1" to 2^64 - 1 and saturate on overflow.
    for (const char *text : {"1 R -1\n", "1 R -0x40\n",
                             "1 W 0x10000000000000000\n"}) {
        TempFile f(text);
        EXPECT_THROW(TraceWorkload{f.path()}, FatalError) << text;
    }
    // The largest address that fits is still accepted.
    TempFile f("1 R 0xffffffffffffffff\n");
    TraceWorkload trace(f.path());
    EXPECT_EQ(trace.next().addr, 0xffffffffffffffffull);
}

TEST(TraceWorkload, RoundTripsASyntheticWorkload)
{
    WorkloadPtr source = makeWorkload("gups", 21);
    TempFile f;
    writeTrace(f.path(), *source, 500);

    // Replaying the recorded prefix matches a fresh generator.
    WorkloadPtr fresh = makeWorkload("gups", 21);
    TraceWorkload replay(f.path());
    ASSERT_EQ(replay.traceLength(), 500u);
    for (int i = 0; i < 500; ++i) {
        Op a = fresh->next();
        Op b = replay.next();
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.gap, b.gap);
        EXPECT_EQ(a.isWrite, b.isWrite);
        EXPECT_EQ(a.dependsOnPrev, b.dependsOnPrev);
    }
}

TEST(TraceWorkload, InMemoryConstruction)
{
    std::vector<Op> ops(3);
    ops[0].addr = 0x40;
    ops[1].addr = 0x80;
    ops[2].addr = 0xC0;
    TraceWorkload w(std::move(ops), "inline");
    EXPECT_EQ(w.info().name, "inline");
    EXPECT_EQ(w.next().addr, 0x40u);
    EXPECT_THROW(TraceWorkload(std::vector<Op>{}, "empty"), FatalError);
}

TEST(TraceWorkload, WriteTraceValidation)
{
    WorkloadPtr source = makeWorkload("stream", 1);
    EXPECT_THROW(writeTrace("/nonexistent/dir/x.txt", *source, 10),
                 FatalError);
    TempFile f;
    EXPECT_THROW(writeTrace(f.path(), *source, 0), FatalError);
}
