// The spidermine command-line tool. All logic lives in cli_commands.cc so
// subcommands are unit-testable; this file only adapts argv.
//
// Examples:
//   spidermine gen --model=er --vertices=2000 --avg-degree=3 --labels=30 --inject-vertices=25 --inject-count=3 --out=/tmp/g.smg
//   spidermine stats /tmp/g.smg
//   spidermine mine /tmp/g.smg --support=3 --k=10 --dmax=4 --variants --stats
//   spidermine stage1 /tmp/g.smg --support=3 --out=/tmp/g.sm2
//   spidermine query /tmp/g.smg /tmp/g.sm2 --k=10 --dmax=4 --seed=7
//   echo '{"id":1,"k":10,"seed":7}' | spidermine serve /tmp/g.smg /tmp/g.sm2 --max-inflight=4
//   spidermine baseline /tmp/g.smg --algo=subdue
//   spidermine convert /tmp/g.smg /tmp/g.lg
//
// Full reference with the serve JSON schema: docs/CLI.md.

#include <iostream>
#include <string>
#include <vector>

#include "tools/cli_commands.h"

int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return spidermine::cli::RunCli(args, std::cout, std::cerr);
}
