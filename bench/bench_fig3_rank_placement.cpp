// Figure 3 — Effect of rank reordering.
//
// Paper: for n = 196,608 vertices, sweep node counts and, per node count,
// the placement parameters (P_r, P_c, K_r, K_c). Measured metric:
// effective per-node bandwidth (GB/s). Finding: for a given node count
// the maximum is always achieved when K_r ≈ K_c; the worst cases have
// K_r, K_c far apart; the single-node point exceeds the 25 GB/s NIC limit
// because its traffic is intranode.
//
// Reproduction: the same sweep through the discrete-event simulator with
// the Summit machine model, pipelined schedule (placement is orthogonal
// to pipelining; the paper's sweep uses the reordered binary).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "fig_common.hpp"

using namespace parfw;
using namespace parfw::perf;

int main() {
  bench::header(
      "Figure 3: effective per-node bandwidth vs rank placement",
      "paper: n=196,608; per node count the best placement has Kr ~= Kc\n"
      "(e.g. 4 nodes -> Kr=Kc=2); worst when Kr,Kc are far apart; the\n"
      "1-node case exceeds the 25 GB/s NIC limit (all intranode).");

  const MachineConfig m = MachineConfig::summit();
  const double n = 196608, b = 768;
  bench::FigTrace trace;  // PARFW_TRACE=<file> records the first placement

  Table t({"nodes", "(Pr,Pc,Kr,Kc,Qr,Qc)", "eff.BW GB/s", "best?"});

  for (int nodes : {1, 2, 4, 8, 16, 32, 64}) {
    struct Entry {
      std::string label;
      double bw;
      int kdiff;
    };
    std::vector<Entry> entries;
    // Sweep node-grid factorisations x intranode factorisations of Q=12.
    for (int kr = 1; kr <= nodes; ++kr) {
      if (nodes % kr != 0) continue;
      const int kc = nodes / kr;
      for (const auto& [qr, qc] :
           {std::pair{1, 12}, std::pair{2, 6}, std::pair{3, 4},
            std::pair{4, 3}, std::pair{6, 2}, std::pair{12, 1}}) {
        const int pr = kr * qr, pc = kc * qc;
        if (static_cast<double>(std::max(pr, pc)) > n / b) continue;
        const GridSetup setup = make_grid_explicit(kr, kc, qr, qc, true);
        // comm_only: Figure 3 measures communication efficiency (its
        // 1-node point exceeds the NIC limit, so t_FW there is comm time).
        const RunPoint p = simulate_fw_placement(
            m, dist::Variant::kPipelined, setup, nodes, n, b,
            /*comm_only=*/true, trace.sink());
        char label[64];
        std::snprintf(label, sizeof(label), "(%d,%d,%d,%d,%d,%d)", pr, pc, kr,
                      kc, qr, qc);
        entries.push_back({label, p.eff_bw / 1e9, std::abs(kr - kc)});
      }
    }
    double best = 0;
    for (const auto& e : entries) best = std::max(best, e.bw);
    for (const auto& e : entries)
      t.add_row({std::to_string(nodes), e.label, Table::num(e.bw, 2),
                 e.bw == best ? "<== best" : ""});
  }
  std::printf("%s", t.str().c_str());

  bench::footer(
      "expect: per node count, the starred best row has Kr ~= Kc (and\n"
      "Qr ~= Qc); 1-node bandwidth exceeds 25 GB/s; skewed Kr/Kc rows\n"
      "trail the balanced ones — matching the paper's Figure 3 ordering.");
  return 0;
}
