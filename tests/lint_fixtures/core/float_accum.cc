// Fixture: no-float-accum-in-parallel. Never compiled — only tokenized.
namespace fixture {

void BadSharedAccumulation(int n) {
  double total = 0.0;
  ParallelFor(n, [&](int i) {
    total += i * 0.5;  // line 7: flagged — scheduling-ordered accumulation
  });
}

void PerSlotPatternIsFine(int n, double* slots) {
  ParallelFor(n, [&](int i) {
    double local = 0.0;
    local += i * 0.5;   // lambda-local: clean
    slots[i] += local;  // indexed by the task: clean
  });
}

void MarkedFixedOrderMergeIsFine(int n, double& total) {
  RunTasks(n, [&](int shard) {
    // imdpp-lint: fixed-order-merge — serialized merge shard-by-shard
    total += shard * 0.5;
  });
}

}  // namespace fixture
