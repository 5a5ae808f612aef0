#include "sched/modulo.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include <tuple>

#include "cga/topology.hpp"
#include "isa/instruction.hpp"
#include "regfile/regfiles.hpp"

namespace adres {
namespace {

/// Last rejection reason (diagnostics only).
thread_local const char* g_lastReject = "";
#define REJECT(why)        \
  do {                     \
    g_lastReject = (why);  \
    return false;          \
  } while (0)


int latencyOf(const DfgNode& n) {
  return n.kind == NodeKind::kOp ? opInfo(n.op).latency : 0;
}

bool isDivOp(Opcode op) { return op == Opcode::DIV || op == Opcode::DIV_U; }

/// A routed dataflow edge (after phi redirection).
struct Edge {
  int producer = -1;  ///< op node producing the value
  int consumer = -1;  ///< op node consuming it
  int operandIdx = 0; ///< 0..2 -> src1/src2/src3 of the consumer FuOp
  int dist = 0;       ///< iteration distance (1 for loop-carried)
  int phi = -1;       ///< phi node when the edge carries a loop value
};

struct Placement {
  bool placed = false;
  int fu = -1;
  int t = -1;
  int commit = -1;
  int windowEnd = -1;  ///< end of the local-register validity window
  int localReg = -1;   ///< value's register in fu's local RF (if written)
  int globalReg = -1;  ///< value's CDRF scratch register (if written)
};

/// The partial mapping.  Every member is a flat value or a vector of flat
/// values, so copy-assigning into an existing state reuses its storage.
struct SchedState {
  int ii = 0;
  std::vector<std::array<bool, kCgaFus>> slotBusy;
  // Commit-phase tracking: several ops on one FU may commit at the same
  // modulo phase (their results all land in register files); the phase
  // becomes exclusive only once some consumer reads the FU *output
  // register* at that exact cycle.
  std::vector<std::array<u8, kCgaFus>> commitCount;
  std::vector<std::array<bool, kCgaFus>> commitExcl;

  bool commitAllowed(int cycle, int fu) const {
    return !commitExcl[static_cast<std::size_t>(cycle % ii)][static_cast<std::size_t>(fu)];
  }
  void bookCommit(int cycle, int fu) {
    ++commitCount[static_cast<std::size_t>(cycle % ii)][static_cast<std::size_t>(fu)];
  }
  /// Claims an exact-cycle output-register read of the op committing at
  /// (fu, cycle).  Fails if another op shares the phase.
  bool claimExactRead(int cycle, int fu) {
    auto& cnt = commitCount[static_cast<std::size_t>(cycle % ii)][static_cast<std::size_t>(fu)];
    if (cnt != 1) return false;
    commitExcl[static_cast<std::size_t>(cycle % ii)][static_cast<std::size_t>(fu)] = true;
    return true;
  }
  std::vector<std::array<FuOp, kCgaFus>> ops;
  std::array<int, kCgaFus> nextLocalReg = {};
  int nextScratchCdrf = 0;
  int scratchCdrfLast = 0;
  std::vector<Placement> place;
  std::vector<Preload> preloads;
  std::vector<Writeback> writebacks;
  /// [liveIn/const node * kCgaFus + fu] -> preloaded local register, or -1.
  std::vector<i8> liveInLocal;
  int moves = 0;
  int maxTimePlusLat = 1;
};

FuOp& fuOpAt(SchedState& st, int fu, int t) {
  return st.ops[static_cast<std::size_t>(t % st.ii)][static_cast<std::size_t>(fu)];
}

SrcSel& operandField(FuOp& f, int operandIdx) {
  switch (operandIdx) {
    case 0: return f.src1;
    case 1: return f.src2;
    default: return f.src3;
  }
}

int allocLocal(SchedState& st, int fu) {
  if (st.nextLocalReg[static_cast<std::size_t>(fu)] >= kLocalRfRegs) return -1;
  return st.nextLocalReg[static_cast<std::size_t>(fu)]++;
}

int allocScratchCdrf(SchedState& st) {
  if (st.nextScratchCdrf > st.scratchCdrfLast) return -1;
  return st.nextScratchCdrf++;
}

/// Ensures the producing op writes its own local RF; returns the register.
int ensureProducerLocal(SchedState& st, int node) {
  Placement& p = st.place[static_cast<std::size_t>(node)];
  if (p.localReg >= 0) return p.localReg;
  const int reg = allocLocal(st, p.fu);
  if (reg < 0) return -1;
  FuOp& f = fuOpAt(st, p.fu, p.t);
  f.dst.toLocalRf = true;
  f.dst.localAddr = static_cast<u8>(reg);
  p.localReg = reg;
  return reg;
}

/// Ensures the producing op also writes a CDRF register (FUs 0-2 only);
/// `fixedReg` >= 0 forces the register (phi seed), else a scratch is taken.
int ensureProducerGlobal(SchedState& st, int node, int fixedReg) {
  Placement& p = st.place[static_cast<std::size_t>(node)];
  if (p.globalReg >= 0) return p.globalReg;
  if (!hasGlobalPort(p.fu)) return -1;
  const int reg = fixedReg >= 0 ? fixedReg : allocScratchCdrf(st);
  if (reg < 0) return -1;
  FuOp& f = fuOpAt(st, p.fu, p.t);
  if (f.dst.toGlobalRf) return -1;  // already writing a different CDRF reg
  f.dst.toGlobalRf = true;
  f.dst.globalAddr = static_cast<u8>(reg);
  p.globalReg = reg;
  return reg;
}

// ---------------------------------------------------------------------------
// Edge routing: breadth-first search over (fu, commit-cycle) states.
// ---------------------------------------------------------------------------

/// Per producer FU, the other FUs that can read its output register, in
/// ascending order: the order in which the router expands mesh hops.
struct MeshReaders {
  std::array<std::array<int, kCgaFus>, kCgaFus> of{};
  std::array<int, kCgaFus> count{};

  MeshReaders() {
    for (int r = 0; r < kCgaFus; ++r) {
      for (int p = 0; p < kCgaFus; ++p) {
        if (r == p || !canRead(r, p)) continue;
        const auto up = static_cast<std::size_t>(p);
        of[up][static_cast<std::size_t>(count[up]++)] = r;
      }
    }
  }
};

const MeshReaders& meshReaders() {
  static const MeshReaders readers;
  return readers;
}

struct RouteNode {
  int f = -1;
  int c = 0;          ///< cycle at which the value is committed at f
  int parent = -1;
  int issue = -1;     ///< issue time of the move that created this state
  int depth = 0;      ///< routing moves from the start state
  bool readsLocal = false;  ///< move read the parent's local register
};

/// The router's search buffers.  One Attempt owns them and reuses them for
/// every route, so a search allocates nothing once they have grown.
struct RouteScratch {
  /// BFS states in discovery order.  Every state but a terminal is queued
  /// the moment it is discovered, so this is also the FIFO: a head index
  /// walks it.
  std::vector<RouteNode> nodes;
  /// Visited bitmap over the state window: [(c - base) * kCgaFus + f].
  std::vector<u8> visited;
  int base = 0;  ///< the producer's commit cycle
  int last = 0;  ///< T + 1, the latest commit any move can reach
  std::vector<int> chain;
  std::vector<u8> needLocal;
  std::vector<int> regOf;

  /// Starts a search whose states commit within [commit, lastCycle].
  void reset(int commit, int lastCycle) {
    base = commit;
    last = lastCycle;
    visited.assign(static_cast<std::size_t>(last - base + 1) * kCgaFus, 0);
    nodes.clear();
  }
  u8& visitedAt(int f, int c) {
    ADRES_CHECK(c >= base && c <= last,
                "route state cycle " << c << " outside [" << base << ", "
                                     << last << "]");
    return visited[static_cast<std::size_t>(c - base) * kCgaFus +
                   static_cast<std::size_t>(f)];
  }
};

/// Routes producer `prod` (an op node, already placed) to the consumer port
/// (consFu, consTime, operandIdx) with iteration distance `dist`.
/// On success fills the consumer's operand select and books all resources.
bool routeOpEdge(SchedState& st, RouteScratch& rs, int prodNode, int consFu,
                 int consTime, FuOp& consOp, int operandIdx, int dist,
                 int phiSeedReg) {
  const MeshReaders& readers = meshReaders();
  const Placement& p = st.place[static_cast<std::size_t>(prodNode)];
  const int T = consTime + dist * st.ii;  // producer-relative read instant
  if (T < p.commit) return false;

  // Zero-move terminals straight from the producer.
  // (a) Same FU: read the producer's local register.
  if (consFu == p.fu && T < p.windowEnd) {
    const int reg = ensureProducerLocal(st, prodNode);
    if (reg >= 0) {
      if (phiSeedReg >= 0)
        st.preloads.push_back({static_cast<u8>(consFu), static_cast<u8>(reg),
                               static_cast<u8>(phiSeedReg)});
      operandField(consOp, operandIdx) = SrcSel::localRf(reg);
      return true;
    }
  }
  // (b) Exact-cycle neighbour read of the producer's output register —
  // impossible for carried values (iteration 0 would need a seed).
  // Claims phase exclusivity: no other op may commit on that FU there.
  if (dist == 0 && T == p.commit && canRead(consFu, p.fu) &&
      st.claimExactRead(p.commit, p.fu)) {
    operandField(consOp, operandIdx) = SrcSel::output(p.fu);
    return true;
  }
  // (c) Through the central register file.
  if (hasGlobalPort(p.fu) && hasGlobalPort(consFu) && T >= p.commit &&
      T < p.commit + st.ii) {
    const int reg = ensureProducerGlobal(st, prodNode, phiSeedReg);
    if (reg >= 0) {
      operandField(consOp, operandIdx) = SrcSel::globalRf(reg);
      return true;
    }
  }

  // BFS through routing moves.  A hop commits one cycle after its parent
  // and only while the parent commits before T; a delay commits at most at
  // T + 1.  So every state commits within [p.commit, T + 1].
  std::vector<RouteNode>& nodes = rs.nodes;
  rs.reset(p.commit, T + 1);
  nodes.push_back({p.fu, p.commit, -1, -1, 0, false});
  rs.visitedAt(p.fu, p.commit) = 1;
  int terminal = -1;
  bool terminalLocal = false;  // consumer reads last move's local register

  const auto windowEndOf = [&](const RouteNode& rn) {
    return rn.parent < 0 ? p.windowEnd : rn.c + st.ii;
  };
  // Terminal test for a newly discovered state.
  const auto isTerminal = [&](const RouteNode& nn, bool& local) {
    if (nn.f == consFu && nn.c <= T && T < nn.c + st.ii) {
      local = true;
      return true;
    }
    if (dist == 0 && nn.c == T && canRead(consFu, nn.f)) {
      local = false;
      return true;
    }
    return false;
  };

  constexpr int kMaxRouteMoves = 6;

  for (std::size_t head = 0; head < nodes.size() && terminal < 0; ++head) {
    const int cur = static_cast<int>(head);
    const RouteNode rn = nodes[head];
    if (rn.depth >= kMaxRouteMoves) continue;

    // Goal tests for states other than the raw start (start handled above).
    // Expansion: moves.
    // E1: hop to a mesh neighbour reading rn.f's output at exactly rn.c.
    if (rn.c < T) {
      const auto uf = static_cast<std::size_t>(rn.f);
      for (int k = 0; k < readers.count[uf]; ++k) {
        const int f2 = readers.of[uf][static_cast<std::size_t>(k)];
        u8& seen = rs.visitedAt(f2, rn.c + 1);
        if (seen) continue;
        if (st.slotBusy[static_cast<std::size_t>(rn.c % st.ii)][static_cast<std::size_t>(f2)]) continue;
        if (!st.commitAllowed(rn.c + 1, f2)) continue;
        // Reading rn's output at exactly rn.c requires a unique committer:
        // the producer (already booked, count 1) at the start state, or an
        // as-yet-unbooked route move (phase must still be empty).
        const int expectCount = rn.parent < 0 ? 1 : 0;
        if (st.commitCount[static_cast<std::size_t>(rn.c % st.ii)][uf] != expectCount)
          continue;
        seen = 1;
        nodes.push_back({f2, rn.c + 1, cur, rn.c, rn.depth + 1, false});
        if (isTerminal(nodes.back(), terminalLocal)) {
          terminal = static_cast<int>(nodes.size()) - 1;
          break;
        }
      }
      if (terminal >= 0) break;
    }
    // E2: delay on the same FU — a MOV reading the local register written
    // at rn.c, re-committing later.  Requires a local write at rn.
    {
      const int wEnd = windowEndOf(rn);
      for (int m = rn.c; m < std::min(wEnd, T + 1); ++m) {
        u8& seen = rs.visitedAt(rn.f, m + 1);
        if (seen) continue;
        if (st.slotBusy[static_cast<std::size_t>(m % st.ii)][static_cast<std::size_t>(rn.f)]) continue;
        if (!st.commitAllowed(m + 1, rn.f)) continue;
        seen = 1;
        nodes.push_back({rn.f, m + 1, cur, m, rn.depth + 1, true});
        if (isTerminal(nodes.back(), terminalLocal)) {
          terminal = static_cast<int>(nodes.size()) - 1;
          break;
        }
      }
      if (terminal >= 0) break;
    }
  }

  if (terminal < 0) return false;

  // Materialize the chain from start to terminal.
  std::vector<int>& chain = rs.chain;
  chain.clear();
  for (int i = terminal; i >= 0; i = nodes[static_cast<std::size_t>(i)].parent)
    chain.push_back(i);
  std::reverse(chain.begin(), chain.end());  // chain[0] = start

  // Determine which states need a local register (read by a delay move or
  // by the terminal-local consumer).
  std::vector<u8>& needLocal = rs.needLocal;
  needLocal.assign(chain.size(), 0);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (nodes[static_cast<std::size_t>(chain[i])].readsLocal) needLocal[i - 1] = 1;
  }
  if (terminalLocal) needLocal[chain.size() - 1] = 1;

  // Start state local register (the producer's own).
  std::vector<int>& regOf = rs.regOf;
  regOf.assign(chain.size(), -1);
  if (needLocal[0]) {
    const int reg = ensureProducerLocal(st, prodNode);
    if (reg < 0) return false;
    regOf[0] = reg;
  }

  // Place the moves.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const RouteNode& rn = nodes[static_cast<std::size_t>(chain[i])];
    const RouteNode& prev = nodes[static_cast<std::size_t>(chain[i - 1])];
    const int slot = rn.issue % st.ii;
    if (st.slotBusy[static_cast<std::size_t>(slot)][static_cast<std::size_t>(rn.f)]) return false;
    if (!st.commitAllowed(rn.c, rn.f)) return false;
    if (!rn.readsLocal && !st.claimExactRead(prev.c, prev.f)) return false;
    st.slotBusy[static_cast<std::size_t>(slot)][static_cast<std::size_t>(rn.f)] = true;
    st.bookCommit(rn.c, rn.f);
    FuOp& mv = st.ops[static_cast<std::size_t>(slot)][static_cast<std::size_t>(rn.f)];
    mv.op = Opcode::MOV;
    mv.schedTime = static_cast<u16>(rn.issue);
    mv.src1 = rn.readsLocal ? SrcSel::localRf(regOf[i - 1])
                            : SrcSel::output(prev.f);
    if (needLocal[i]) {
      const int reg = allocLocal(st, rn.f);
      if (reg < 0) return false;
      mv.dst.toLocalRf = true;
      mv.dst.localAddr = static_cast<u8>(reg);
      regOf[i] = reg;
    }
    ++st.moves;
    st.maxTimePlusLat = std::max(st.maxTimePlusLat, rn.c + 1);
  }

  // Hook the consumer's operand.
  const RouteNode& last = nodes[static_cast<std::size_t>(chain.back())];
  if (terminalLocal) {
    operandField(consOp, operandIdx) = SrcSel::localRf(regOf[chain.size() - 1]);
    if (phiSeedReg >= 0)
      st.preloads.push_back({static_cast<u8>(consFu),
                             static_cast<u8>(regOf[chain.size() - 1]),
                             static_cast<u8>(phiSeedReg)});
  } else {
    if (phiSeedReg >= 0) return false;  // carried values need a seeded register
    if (!st.claimExactRead(last.c, last.f)) return false;
    operandField(consOp, operandIdx) = SrcSel::output(last.f);
  }
  return true;
}

/// Routes a live-in or constant operand (no moves ever needed).
bool routeLiveInEdge(SchedState& st, const DfgNode& src, int consFu,
                     FuOp& consOp, int operandIdx) {
  if (hasGlobalPort(consFu)) {
    operandField(consOp, operandIdx) = SrcSel::globalRf(src.globalReg);
    return true;
  }
  i8& local = st.liveInLocal[static_cast<std::size_t>(src.id) * kCgaFus +
                             static_cast<std::size_t>(consFu)];
  if (local < 0) {
    const int reg = allocLocal(st, consFu);
    if (reg < 0) return false;
    local = static_cast<i8>(reg);
    st.preloads.push_back({static_cast<u8>(consFu), static_cast<u8>(reg),
                           src.globalReg});
  }
  operandField(consOp, operandIdx) = SrcSel::localRf(local);
  return true;
}

// ---------------------------------------------------------------------------
// The scheduler driver.
// ---------------------------------------------------------------------------

class Attempt {
 public:
  Attempt(const KernelDfg& g, int ii, const ScheduleOptions& opt,
          const std::vector<int>& boost, int perturb)
      : g_(g), opt_(opt), perturb_(perturb) {
    g_lastReject = "";
    st_.ii = ii;
    st_.slotBusy.assign(static_cast<std::size_t>(ii), {});
    st_.commitCount.assign(static_cast<std::size_t>(ii), {});
    st_.commitExcl.assign(static_cast<std::size_t>(ii), {});
    st_.ops.assign(static_cast<std::size_t>(ii), {});
    st_.place.assign(g.nodes.size(), {});
    st_.liveInLocal.assign(g.nodes.size() * kCgaFus, -1);
    st_.nextScratchCdrf = opt.scratchCdrfFirst;
    st_.scratchCdrfLast = opt.scratchCdrfLast;
    buildEdges();
    computeHeights();
    // Cheap backtracking: nodes that blocked a previous attempt are placed
    // first this time round.  An LD_IH drags its paired LD_I along (it can
    // never place before its low half).
    for (auto it = boost.rbegin(); it != boost.rend(); ++it) {
      std::vector<int> group{*it};
      const DfgNode& nd = g.node(*it);
      if (nd.kind == NodeKind::kOp && nd.op == Opcode::LD_IH)
        group.insert(group.begin(), nd.src[2]);
      for (auto git = group.rbegin(); git != group.rend(); ++git) {
        const auto pos = std::find(order_.begin(), order_.end(), *git);
        if (pos != order_.end()) {
          order_.erase(pos);
          order_.insert(order_.begin(), *git);
        }
      }
    }
  }

  std::optional<ScheduledKernel> run();
  int failedNode() const { return failedNode_; }

  // Diagnostic observation of the (possibly partial) attempt state.
  int placementRejects() const { return placementRejects_; }
  int routeFailures() const { return routeFailures_; }
  int routeMoves() const { return st_.moves; }
  int placedCount() const {
    int n = 0;
    for (const Placement& p : st_.place) n += p.placed ? 1 : 0;
    return n;
  }
  const char* lastReject() const { return g_lastReject; }

 private:
  void buildEdges();
  void computeHeights();
  bool placeNode(int v);
  /// The rejections that only read the committed state: issue slot,
  /// commit phase, LD_IH pairing and order edges.  Nothing is copied for a
  /// candidate that fails here.
  bool candidateFits(int v, int fu, int t, bool allowSharedCommit) const;
  /// Books a candidate that fits into `st` and routes its now-complete
  /// edges.
  bool bookAndRoute(SchedState& st, int v, int fu, int t);
  bool routeEdgeInState(SchedState& st, const Edge& e);
  int earliestStart(int v) const;
  int latestStart(int v) const;

  const KernelDfg& g_;
  const ScheduleOptions& opt_;
  SchedState st_;
  /// The candidate being booked and routed: a copy of st_ that keeps its
  /// storage across candidates (swapped with st_ on success).
  SchedState trial_;
  RouteScratch route_;
  std::vector<Edge> edges_;
  /// Per node, the edges_ indices of the edges it produces or consumes, in
  /// edges_ order (a self edge once).
  std::vector<std::vector<int>> incident_;
  std::vector<int> height_;
  std::vector<int> asap_;  ///< earliest feasible issue over dist-0 edges
  std::vector<int> alap_;  ///< latest issue on a critical-path-length schedule
  std::vector<int> order_;
  int failedNode_ = -1;
  int perturb_ = 0;
  int placementRejects_ = 0;
  int routeFailures_ = 0;
};

void Attempt::buildEdges() {
  for (const DfgNode& n : g_.nodes) {
    if (n.kind != NodeKind::kOp) continue;
    const int nOperands = isStore(n.op) || n.op == Opcode::LD_IH ? 3 : 2;
    for (int k = 0; k < nOperands; ++k) {
      const int s = n.src[k];
      if (s < 0) continue;
      if (n.op == Opcode::LD_IH && k == 2) continue;  // pairing, not dataflow
      const DfgNode& sn = g_.node(s);
      Edge e;
      e.consumer = n.id;
      e.operandIdx = k;
      if (sn.kind == NodeKind::kPhi) {
        e.producer = sn.carriedDef;
        e.dist = 1;
        e.phi = sn.id;
        const DfgNode& def = g_.node(sn.carriedDef);
        ADRES_CHECK(def.kind == NodeKind::kOp,
                    "phi carried definition must be an op");
      } else if (sn.kind == NodeKind::kOp) {
        e.producer = sn.id;
      } else {
        e.producer = sn.id;  // liveIn / const; routed specially
      }
      edges_.push_back(e);
    }
  }

  incident_.assign(g_.nodes.size(), {});
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    incident_[static_cast<std::size_t>(e.consumer)].push_back(static_cast<int>(i));
    if (e.producer != e.consumer)
      incident_[static_cast<std::size_t>(e.producer)].push_back(static_cast<int>(i));
  }
}

void Attempt::computeHeights() {
  // Longest latency path to any sink over dist-0 op edges, including the
  // LD_I -> LD_IH pairing relation (the low half must be placed first).
  const std::size_t n = g_.nodes.size();
  height_.assign(n, 0);
  // Repeated relaxation (graphs are tiny).
  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 1000) {
    changed = false;
    for (const Edge& e : edges_) {
      if (e.dist != 0) continue;
      const DfgNode& pn = g_.node(e.producer);
      if (pn.kind != NodeKind::kOp) continue;
      const int h = height_[static_cast<std::size_t>(e.consumer)] + latencyOf(pn);
      if (h > height_[static_cast<std::size_t>(e.producer)]) {
        height_[static_cast<std::size_t>(e.producer)] = h;
        changed = true;
      }
    }
    for (const DfgNode& nd : g_.nodes) {
      if (nd.kind != NodeKind::kOp || nd.op != Opcode::LD_IH) continue;
      const int low = nd.src[2];
      const int h = height_[static_cast<std::size_t>(nd.id)] + 1;
      if (h > height_[static_cast<std::size_t>(low)]) {
        height_[static_cast<std::size_t>(low)] = h;
        changed = true;
      }
    }
  }
  // ASAP depths over the same edge set (direction reversed).
  asap_.assign(n, 0);
  changed = true;
  guard = 0;
  while (changed && guard++ < 1000) {
    changed = false;
    for (const Edge& e : edges_) {
      if (e.dist != 0) continue;
      const DfgNode& pn = g_.node(e.producer);
      if (pn.kind != NodeKind::kOp) continue;
      const int d = asap_[static_cast<std::size_t>(e.producer)] + latencyOf(pn);
      if (d > asap_[static_cast<std::size_t>(e.consumer)]) {
        asap_[static_cast<std::size_t>(e.consumer)] = d;
        changed = true;
      }
    }
    for (const DfgNode& nd : g_.nodes) {
      if (nd.kind != NodeKind::kOp || nd.op != Opcode::LD_IH) continue;
      const int d = asap_[static_cast<std::size_t>(nd.src[2])] + 1;
      if (d > asap_[static_cast<std::size_t>(nd.id)]) {
        asap_[static_cast<std::size_t>(nd.id)] = d;
        changed = true;
      }
    }
  }
  // ALAP on a critical-path-length schedule: ops with slack are biased
  // toward their consumers, keeping routed lifetimes short.
  int critical = 0;
  for (const DfgNode& nd : g_.nodes) {
    if (nd.kind != NodeKind::kOp) continue;
    critical = std::max(critical, asap_[static_cast<std::size_t>(nd.id)] + latencyOf(nd));
  }
  alap_.assign(n, 0);
  for (const DfgNode& nd : g_.nodes) {
    if (nd.kind != NodeKind::kOp) continue;
    alap_[static_cast<std::size_t>(nd.id)] =
        critical - height_[static_cast<std::size_t>(nd.id)] - latencyOf(nd);
  }
  for (const DfgNode& nd : g_.nodes)
    if (nd.kind == NodeKind::kOp) order_.push_back(nd.id);
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    if (height_[static_cast<std::size_t>(a)] != height_[static_cast<std::size_t>(b)])
      return height_[static_cast<std::size_t>(a)] > height_[static_cast<std::size_t>(b)];
    return a < b;
  });
  // Keep LD_I/LD_IH pairs adjacent: the high half must grab a same-FU slot
  // within II cycles of the low half, so it places immediately after it
  // before other loads consume those slots.
  std::vector<int> paired;
  paired.reserve(order_.size());
  for (int v : order_) {
    const DfgNode& nd = g_.node(v);
    if (nd.kind == NodeKind::kOp && nd.op == Opcode::LD_IH) continue;
    paired.push_back(v);
    for (const DfgNode& hi : g_.nodes) {
      if (hi.kind == NodeKind::kOp && hi.op == Opcode::LD_IH && hi.src[2] == v)
        paired.push_back(hi.id);
    }
  }
  order_ = std::move(paired);
}

int Attempt::earliestStart(int v) const {
  int est = 0;
  for (const int i : incident_[static_cast<std::size_t>(v)]) {
    const Edge& e = edges_[static_cast<std::size_t>(i)];
    if (e.consumer != v) continue;
    const DfgNode& pn = g_.node(e.producer);
    if (pn.kind != NodeKind::kOp) continue;
    const Placement& p = st_.place[static_cast<std::size_t>(e.producer)];
    if (!p.placed) continue;
    est = std::max(est, p.commit - e.dist * st_.ii);
  }
  // Order edges (memory discipline).
  for (const OrderEdge& oe : g_.orderEdges) {
    if (oe.to != v) continue;
    const Placement& p = st_.place[static_cast<std::size_t>(oe.from)];
    if (p.placed) est = std::max(est, p.t + 1 - oe.dist * st_.ii);
  }
  // LD_IH issues strictly after its (already-placed) low half.
  const DfgNode& nd = g_.node(v);
  if (nd.kind == NodeKind::kOp && nd.op == Opcode::LD_IH) {
    const Placement& lp = st_.place[static_cast<std::size_t>(nd.src[2])];
    if (lp.placed) est = std::max(est, lp.t + 1);
  }
  return std::max(est, 0);
}

int Attempt::latestStart(int v) const {
  // Upper bound from already-placed consumers of v: v's commit must not be
  // later than the consumer's (dist-shifted) read instant.
  int latest = 1 << 20;
  const int lat = latencyOf(g_.node(v));
  for (const int i : incident_[static_cast<std::size_t>(v)]) {
    const Edge& e = edges_[static_cast<std::size_t>(i)];
    if (e.producer != v || e.consumer == v) continue;
    const Placement& cp = st_.place[static_cast<std::size_t>(e.consumer)];
    if (!cp.placed) continue;
    latest = std::min(latest, cp.t + e.dist * st_.ii - lat);
  }
  for (const OrderEdge& oe : g_.orderEdges) {
    if (oe.from != v) continue;
    const Placement& p = st_.place[static_cast<std::size_t>(oe.to)];
    if (p.placed) latest = std::min(latest, p.t - 1 + oe.dist * st_.ii);
  }
  // LD_IH must commit within one II of its low half.
  const DfgNode& nd = g_.node(v);
  if (nd.kind == NodeKind::kOp && nd.op == Opcode::LD_IH) {
    const Placement& lp = st_.place[static_cast<std::size_t>(nd.src[2])];
    if (lp.placed) latest = std::min(latest, lp.t + st_.ii - 1);
  }
  return latest;
}

bool Attempt::routeEdgeInState(SchedState& st, const Edge& e) {
  const DfgNode& pn = g_.node(e.producer);
  const Placement& cp = st.place[static_cast<std::size_t>(e.consumer)];
  FuOp& consOp = fuOpAt(st, cp.fu, cp.t);
  if (pn.kind == NodeKind::kLiveIn || pn.kind == NodeKind::kConst) {
    return routeLiveInEdge(st, pn, cp.fu, consOp, e.operandIdx);
  }
  const int seed = e.phi >= 0 ? g_.node(e.phi).globalReg : -1;
  return routeOpEdge(st, route_, e.producer, cp.fu, cp.t, consOp,
                     e.operandIdx, e.dist, seed);
}

bool Attempt::candidateFits(int v, int fu, int t,
                            bool allowSharedCommit) const {
  const DfgNode& nd = g_.node(v);
  const int ii = st_.ii;
  const int lat = opInfo(nd.op).latency;

  // Issue-slot booking (divider is non-pipelined: 8 consecutive slots).
  if (isDivOp(nd.op)) {
    if (ii < 8) REJECT("div ii<8");
    for (int k = 0; k < 8; ++k)
      if (st_.slotBusy[static_cast<std::size_t>((t + k) % ii)][static_cast<std::size_t>(fu)]) REJECT("div slots");
  } else {
    if (st_.slotBusy[static_cast<std::size_t>(t % ii)][static_cast<std::size_t>(fu)]) REJECT("slot busy");
  }
  if (!st_.commitAllowed(t + lat, fu)) REJECT("commit excl");
  if (!allowSharedCommit &&
      st_.commitCount[static_cast<std::size_t>((t + lat) % ii)][static_cast<std::size_t>(fu)] != 0)
    REJECT("commit shared");

  // LD_IH pairing: same FU as the low half, committing strictly later,
  // within one II so the pair window is non-empty.
  if (nd.op == Opcode::LD_IH) {
    const Placement& lp = st_.place[static_cast<std::size_t>(nd.src[2])];
    if (!lp.placed || lp.fu != fu) REJECT("pair fu");
    if (t + lat <= lp.commit || t + lat >= lp.commit + ii) REJECT("pair window");
  }

  // Order-edge checks against already-placed partners.
  for (const OrderEdge& oe : g_.orderEdges) {
    if (oe.to == v) {
      const Placement& p = st_.place[static_cast<std::size_t>(oe.from)];
      if (p.placed && t + oe.dist * ii < p.t + 1) return false;
    }
    if (oe.from == v) {
      const Placement& p = st_.place[static_cast<std::size_t>(oe.to)];
      if (p.placed && p.t + oe.dist * ii < t + 1) return false;
    }
  }
  return true;
}

bool Attempt::bookAndRoute(SchedState& st, int v, int fu, int t) {
  const DfgNode& nd = g_.node(v);
  const int ii = st.ii;
  const int slot = t % ii;
  const int lat = opInfo(nd.op).latency;

  // Book.
  if (isDivOp(nd.op)) {
    for (int k = 0; k < 8; ++k)
      st.slotBusy[static_cast<std::size_t>((t + k) % ii)][static_cast<std::size_t>(fu)] = true;
  } else {
    st.slotBusy[static_cast<std::size_t>(slot)][static_cast<std::size_t>(fu)] = true;
  }
  st.bookCommit(t + lat, fu);

  Placement& pl = st.place[static_cast<std::size_t>(v)];
  pl.placed = true;
  pl.fu = fu;
  pl.t = t;
  pl.commit = t + lat;
  pl.windowEnd = pl.commit + ii;

  FuOp& f = st.ops[static_cast<std::size_t>(slot)][static_cast<std::size_t>(fu)];
  f.op = nd.op;
  f.schedTime = static_cast<u16>(t);
  f.imm = nd.imm;
  if (nd.immSrc2) f.src2 = SrcSel::imm();
  st.maxTimePlusLat = std::max(st.maxTimePlusLat, t + lat);

  // Pair register for LD_I/LD_IH.
  if (nd.op == Opcode::LD_IH) {
    Placement& lp = st.place[static_cast<std::size_t>(nd.src[2])];
    const int reg = allocLocal(st, fu);
    if (reg < 0) REJECT("pair reg");
    FuOp& lowOp = fuOpAt(st, lp.fu, lp.t);
    lowOp.dst.toLocalRf = true;
    lowOp.dst.localAddr = static_cast<u8>(reg);
    f.dst.toLocalRf = true;
    f.dst.localAddr = static_cast<u8>(reg);
    pl.localReg = reg;
    pl.windowEnd = lp.commit + ii;  // next iteration's low write ends validity
    lp.localReg = reg;
  }

  // Route every edge whose both endpoints are now placed:
  //  - incoming edges into v,
  //  - outgoing edges from v to already-placed consumers (incl. carried).
  for (const int i : incident_[static_cast<std::size_t>(v)]) {
    const Edge& e = edges_[static_cast<std::size_t>(i)];
    if (e.consumer == v) {
      const DfgNode& pn = g_.node(e.producer);
      if (pn.kind == NodeKind::kOp &&
          !st.place[static_cast<std::size_t>(e.producer)].placed)
        continue;  // routed when the producer lands
    } else if (!st.place[static_cast<std::size_t>(e.consumer)].placed) {
      continue;  // routed when the consumer lands
    }
    if (!routeEdgeInState(st, e)) {
      ++routeFailures_;
      REJECT("route");
    }
  }
  return true;
}

bool Attempt::placeNode(int v) {
  const DfgNode& nd = g_.node(v);
  const OpInfo& info = opInfo(nd.op);
  const int est = std::max(earliestStart(v), asap_[static_cast<std::size_t>(v)]);

  // Candidate FU preference: legality, then closeness to placed partners,
  // then pressure heuristics (keep memory FUs for memory ops, central-port
  // FUs for ops that need them).
  std::vector<int> fus;
  for (int fu = 0; fu < kCgaFus; ++fu)
    if ((info.fuMask >> fu) & 1) fus.push_back(fu);
  std::vector<int> score(kCgaFus, 0);
  for (int fu : fus) {
    int s = 0;
    for (const int i : incident_[static_cast<std::size_t>(v)]) {
      const Edge& e = edges_[static_cast<std::size_t>(i)];
      const int other = e.consumer == v ? e.producer : e.consumer;
      const DfgNode& on = g_.node(other);
      if (on.kind == NodeKind::kOp) {
        const Placement& p = st_.place[static_cast<std::size_t>(other)];
        if (p.placed) s += 3 * torusHops(fu, p.fu);
      }
    }
    if (!isMem(nd.op) && fu < 4) s += 2;   // keep L1-port FUs free
    if (!isDivOp(nd.op) && fu < 2) s += 1; // keep divider FUs free
    s += st_.nextLocalReg[static_cast<std::size_t>(fu)];  // spread RF pressure
    if (perturb_ > 0) {
      // Deterministic jitter for restart diversity.
      const u32 h = static_cast<u32>(v * 2654435761u) ^
                    static_cast<u32>(fu * 40503u) ^
                    static_cast<u32>(perturb_ * 97u);
      s += static_cast<int>((h >> 13) % 4u);
    }
    score[static_cast<std::size_t>(fu)] = s;
  }
  std::sort(fus.begin(), fus.end(), [&](int a, int b) {
    if (score[static_cast<std::size_t>(a)] != score[static_cast<std::size_t>(b)])
      return score[static_cast<std::size_t>(a)] < score[static_cast<std::size_t>(b)];
    return a < b;
  });

  const int lst = std::min(est + opt_.timeWindow, latestStart(v));
  if (lst < est) return false;
  // Candidate times: start at the ALAP-preferred slot (keeps routed value
  // lifetimes short), then fan out later-first, then earlier.
  const int pref = std::clamp(alap_[static_cast<std::size_t>(v)], est, lst);
  std::vector<int> times;
  for (int t = pref; t <= lst; ++t) times.push_back(t);
  for (int t = pref - 1; t >= est; --t) times.push_back(t);
  // Pass 1 insists on a unique commit phase (keeps output-register
  // forwarding available for consumers); pass 2 allows phase sharing.
  for (const bool shared : {false, true}) {
    for (int t : times) {
      for (int fu : fus) {
        if (candidateFits(v, fu, t, shared)) {
          trial_ = st_;
          if (bookAndRoute(trial_, v, fu, t)) {
            std::swap(st_, trial_);
            return true;
          }
        }
        ++placementRejects_;
      }
    }
  }
  return false;
}

std::optional<ScheduledKernel> Attempt::run() {
  for (int v : order_) {
    if (!placeNode(v)) {
      failedNode_ = v;
      return std::nullopt;
    }
  }

  // Live-outs: read the final value from the producer's local register.
  for (const LiveOut& lo : g_.liveOuts) {
    const DfgNode& nd = g_.node(lo.node);
    int prod = nd.id;
    if (nd.kind == NodeKind::kPhi) prod = nd.carriedDef;
    ADRES_CHECK(g_.node(prod).kind == NodeKind::kOp,
                "live-out must name an op or phi value");
    const int reg = ensureProducerLocal(st_, prod);
    if (reg < 0) return std::nullopt;
    st_.writebacks.push_back({lo.globalReg,
                              static_cast<u8>(st_.place[static_cast<std::size_t>(prod)].fu),
                              static_cast<u8>(reg)});
  }

  ScheduledKernel out;
  out.ii = st_.ii;
  out.opNodes = g_.opNodeCount();
  out.routeMoves = st_.moves;
  out.schedLength = st_.maxTimePlusLat;
  out.config.name = g_.name;
  out.config.ii = st_.ii;
  out.config.schedLength = st_.maxTimePlusLat;
  out.config.contexts.resize(static_cast<std::size_t>(st_.ii));
  for (int s = 0; s < st_.ii; ++s)
    for (int fu = 0; fu < kCgaFus; ++fu)
      out.config.contexts[static_cast<std::size_t>(s)].fu[fu] =
          st_.ops[static_cast<std::size_t>(s)][static_cast<std::size_t>(fu)];
  // Duplicate preloads can arise when several consumers share a seeded
  // register; they are idempotent — keep one.
  std::sort(st_.preloads.begin(), st_.preloads.end(),
            [](const Preload& a, const Preload& b) {
              return std::tie(a.fu, a.localReg, a.globalReg) <
                     std::tie(b.fu, b.localReg, b.globalReg);
            });
  st_.preloads.erase(
      std::unique(st_.preloads.begin(), st_.preloads.end(),
                  [](const Preload& a, const Preload& b) {
                    return a.fu == b.fu && a.localReg == b.localReg &&
                           a.globalReg == b.globalReg;
                  }),
      st_.preloads.end());
  out.config.preloads = st_.preloads;
  out.config.writebacks = st_.writebacks;
  out.config.validate();
  return out;
}

}  // namespace

int resourceMii(const KernelDfg& g) {
  int nAll = 0, nMem = 0, nDiv = 0;
  for (const DfgNode& n : g.nodes) {
    if (n.kind != NodeKind::kOp) continue;
    ++nAll;
    if (isMem(n.op)) ++nMem;
    if (isDivOp(n.op)) ++nDiv;
  }
  int mii = (nAll + kCgaFus - 1) / kCgaFus;
  mii = std::max(mii, (nMem + 3) / 4);
  if (nDiv > 0) mii = std::max(mii, std::max(8, (8 * nDiv + 1) / 2));
  return std::max(mii, 1);
}

int recurrenceMii(const KernelDfg& g) {
  int rec = 1;
  for (const DfgNode& phi : g.nodes) {
    if (phi.kind != NodeKind::kPhi) continue;
    // Longest latency path phi -> carriedDef over dist-0 edges.
    std::vector<int> depth(g.nodes.size(), -1);
    depth[static_cast<std::size_t>(phi.id)] = 0;
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 1000) {
      changed = false;
      for (const DfgNode& n : g.nodes) {
        if (n.kind != NodeKind::kOp) continue;
        int best = -1;
        for (int s : n.src) {
          if (s < 0) continue;
          const DfgNode& sn = g.node(s);
          if (depth[static_cast<std::size_t>(s)] < 0) continue;
          const int lat = sn.kind == NodeKind::kOp ? latencyOf(sn) : 0;
          best = std::max(best, depth[static_cast<std::size_t>(s)] + lat);
        }
        if (best > depth[static_cast<std::size_t>(n.id)]) {
          depth[static_cast<std::size_t>(n.id)] = best;
          changed = true;
        }
      }
    }
    const int d = depth[static_cast<std::size_t>(phi.carriedDef)];
    if (d >= 0) rec = std::max(rec, d + latencyOf(g.node(phi.carriedDef)));
  }
  return rec;
}

std::string ScheduleDiagnostics::summary() const {
  std::string out = "kernel '" + kernel + "': MII=max(Res " +
                    std::to_string(miiResource) + ", Rec " +
                    std::to_string(miiRecurrence) + "), " +
                    std::to_string(attempts.size()) + " attempt(s), " +
                    (succeeded ? "II=" + std::to_string(finalII) + ", " +
                                     std::to_string(finalMoves) + " moves"
                               : std::string("FAILED")) +
                    "\n";
  for (const ScheduleAttempt& a : attempts) {
    out += "  II=" + std::to_string(a.ii) + " restart " +
           std::to_string(a.restart) + ": ";
    if (a.success) {
      out += "mapped (" + std::to_string(a.placedNodes) + " ops, " +
             std::to_string(a.routeMoves) + " moves, " +
             std::to_string(a.placementRejects) + " rejects, " +
             std::to_string(a.routeFailures) + " route fails)\n";
    } else {
      out += "blocked at node " + std::to_string(a.failedNode) + " (" +
             (a.failedOp.empty() ? "?" : a.failedOp) + "), last reject '" +
             a.lastReject + "', " + std::to_string(a.placedNodes) +
             " placed, " + std::to_string(a.placementRejects) + " rejects, " +
             std::to_string(a.routeFailures) + " route fails\n";
    }
  }
  return out;
}

namespace {

ScheduleAttempt makeAttemptRecord(const Attempt& a, const KernelDfg& g,
                                  int ii, int restart, bool success) {
  ScheduleAttempt rec;
  rec.ii = ii;
  rec.restart = restart;
  rec.success = success;
  rec.placedNodes = a.placedCount();
  rec.failedNode = success ? -1 : a.failedNode();
  if (!success && rec.failedNode >= 0 &&
      g.node(rec.failedNode).kind == NodeKind::kOp)
    rec.failedOp = opInfo(g.node(rec.failedNode).op).name;
  rec.lastReject = success ? "" : a.lastReject();
  rec.placementRejects = a.placementRejects();
  rec.routeFailures = a.routeFailures();
  rec.routeMoves = a.routeMoves();
  return rec;
}

}  // namespace

ScheduledKernel scheduleKernel(const KernelDfg& g,
                               const ScheduleOptions& options) {
  g.validate();
  const int resMii = resourceMii(g);
  const int recMii = recurrenceMii(g);
  const int mii = std::max(resMii, recMii);
  if (options.diag) {
    *options.diag = {};
    options.diag->kernel = g.name;
    options.diag->miiResource = resMii;
    options.diag->miiRecurrence = recMii;
  }
  for (int ii = mii; ii <= options.maxII; ++ii) {
    std::vector<int> boost;
    for (int restart = 0; restart <= options.restartsPerII; ++restart) {
      Attempt a(g, ii, options, boost, restart);
      const auto r = a.run();
      if (options.diag)
        options.diag->attempts.push_back(
            makeAttemptRecord(a, g, ii, restart, r.has_value()));
      if (r) {
        if (options.diag) {
          options.diag->succeeded = true;
          options.diag->finalII = r->ii;
          options.diag->finalMoves = r->routeMoves;
        }
        return *r;
      }
      const int blocked = a.failedNode();
      if (blocked < 0 ||
          std::find(boost.begin(), boost.end(), blocked) != boost.end())
        break;
      boost.push_back(blocked);
    }
  }
  throw SimError("modulo scheduling failed for kernel '" + g.name +
                 "' up to II=" + std::to_string(options.maxII));
}

}  // namespace adres
