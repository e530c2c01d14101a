// Fixture: run-context-only. In core/ and baselines/, engines, prep
// leases and pools come from core::RunContext, which books their work;
// the raw factories skip the booking. Never compiled — only tokenized.
namespace fixture {

void RawFactories() {
  auto engine = diffusion::MakeSigmaBackend(spec, problem, campaign);  // 7
  auto lease = prep::AcquirePrep(cache, problem, pool);  // line 8
  auto pool = util::MakeWorkerPool(4);                         // line 9
  auto made = run.MakeEngine(problem, 8);  // through the context: clean
  auto leased = run.LeasePrep(problem);    // through the context: clean
}

}  // namespace fixture
