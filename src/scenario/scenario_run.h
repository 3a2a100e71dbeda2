// Executes a scenario_spec: one family runner per experiment family, each
// printing a banner, fixed-order tables on stdout and a stats::json
// summary. The committed files under examples/scenarios/ are the only
// definition of the figure grids (Fig. 9, 16 and 24, the ECN-impairment
// and fault-chaos grids) and `l4span_run` their only driver; output is
// byte-identical for any --jobs value (pinned in
// tests/test_scenario_spec.cpp).
#pragma once

#include "scenario/grid_runner.h"
#include "scenario/scenario_spec.h"
#include "stats/json.h"

namespace l4span::scenario {

// Runs the scenario: banner, grid fan-out (grid_runner with args.jobs),
// fixed-order tables on stdout, JSON summary behind args.json_path.
// args.quick is ignored — quickness is part of the document. When
// `summary_out` is non-null it receives the summary (tests capture it
// without temp files). Returns the process exit status (0, or 1 when
// --json was requested but could not be written).
int run_scenario(const scenario_spec& spec, const bench_args& args,
                 stats::json* summary_out = nullptr);

}  // namespace l4span::scenario
