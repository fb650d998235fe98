// Framework statistics of §4.1: the 4608-point design space, per-application
// cycle range/variation across the full space, and the synthetic SPEC
// database statistics per family vs the paper's published numbers.
#include <iostream>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sim/config.hpp"
#include "specdata/generator.hpp"
#include "workload/profiles.hpp"

#include "bench_util.hpp"

int main() {
  using namespace dsml;
  std::cout << "§4.1 framework statistics\n\n";
  std::cout << "Design space: " << sim::enumerate_design_space().size()
            << " configurations (paper: 4608)\n\n";

  {
    std::cout << "Simulated cycle statistics over the full design space "
                 "(paper range/variation: applu 1.62/0.16, equake 1.73/0.19, "
                 "gcc 5.27/0.33, mesa 2.22/0.19, mcf 6.38/0.71):\n";
    TablePrinter table({"app", "range", "variation", "paper range",
                        "paper variation"});
    struct PaperRow { const char* app; const char* range; const char* var; };
    const PaperRow paper[] = {{"applu", "1.62", "0.16"},
                              {"equake", "1.73", "0.19"},
                              {"gcc", "5.27", "0.33"},
                              {"mesa", "2.22", "0.19"},
                              {"mcf", "6.38", "0.71"}};
    for (const auto& row : paper) {
      const auto sweep =
          dse::run_design_space_sweep(row.app, bench::sweep_options());
      table.add_row({row.app,
                     strings::format_double(stats::range_ratio(sweep.cycles), 2),
                     strings::format_double(stats::variation(sweep.cycles), 2),
                     row.range, row.var});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  {
    std::cout << "Synthetic SPEC announcement database per family "
                 "(records / rating range / variation vs paper):\n";
    TablePrinter table({"family", "records", "range", "variation",
                        "paper (rec/range/var)"});
    for (specdata::Family family : specdata::all_families()) {
      const auto records = specdata::generate_family(family, {});
      std::vector<double> ratings;
      for (const auto& r : records) ratings.push_back(r.spec_rating);
      const auto paper = specdata::paper_family_stats(family);
      table.add_row(
          {to_string(family), std::to_string(records.size()),
           strings::format_double(stats::range_ratio(ratings), 2),
           strings::format_double(stats::variation(ratings), 2),
           std::to_string(paper.records) + "/" +
               strings::format_double(paper.range, 2) + "/" +
               strings::format_double(paper.variation, 2)});
    }
    table.print(std::cout);
  }
  return 0;
}
