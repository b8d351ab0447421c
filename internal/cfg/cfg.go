// Package cfg builds control flow graphs over TS-V8 programs, profiles edge
// activation probabilities and basic-block execution counts from simulator
// runs, and computes strongly connected components with Tarjan's algorithm
// plus their condensation topological order — exactly the machinery Section
// 4.2 of the paper needs to set up and order its linear systems.
package cfg

import (
	"fmt"
	"sort"

	"tsperr/internal/cpu"
	"tsperr/internal/isa"
)

// Block is a basic block: instructions [Start, End) of the program.
type Block struct {
	ID    int
	Start int
	End   int
	// Succs lists statically known successor block IDs.
	Succs []int
}

// NumInsts returns the instruction count n_i of the block.
func (b *Block) NumInsts() int { return b.End - b.Start }

// Edge identifies a CFG edge by block IDs.
type Edge struct {
	From, To int
}

// Graph is a program CFG.
type Graph struct {
	Prog    *isa.Program
	Blocks  []Block
	BlockOf []int // instruction index -> block ID
}

// Build constructs the CFG. Leaders are the entry, every control-transfer
// target, and every instruction following a control transfer. Indirect jumps
// (jr) contribute no static successors; their edges appear during profiling.
func Build(p *isa.Program) (*Graph, error) {
	n := len(p.Insts)
	if n == 0 {
		return nil, fmt.Errorf("cfg: empty program")
	}
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range p.Insts {
		if in.Op.IsBranch() || in.Op == isa.OpJal {
			if in.Target < 0 || in.Target >= n {
				return nil, fmt.Errorf("cfg: instruction %d targets %d outside program", i, in.Target)
			}
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Op == isa.OpJr || in.Op == isa.OpHalt {
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}
	g := &Graph{Prog: p, BlockOf: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.Blocks = append(g.Blocks, Block{ID: len(g.Blocks), Start: i})
		}
		g.BlockOf[i] = len(g.Blocks) - 1
	}
	for bi := range g.Blocks {
		if bi+1 < len(g.Blocks) {
			g.Blocks[bi].End = g.Blocks[bi+1].Start
		} else {
			g.Blocks[bi].End = n
		}
	}
	// Static successors.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := p.Insts[b.End-1]
		add := func(target int) {
			to := g.BlockOf[target]
			for _, s := range b.Succs {
				if s == to {
					return
				}
			}
			b.Succs = append(b.Succs, to)
		}
		switch {
		case last.Op.IsBranch():
			add(last.Target)
			if b.End < n {
				add(b.End)
			}
		case last.Op == isa.OpJal:
			add(last.Target)
		case last.Op == isa.OpJr, last.Op == isa.OpHalt:
			// No static successors.
		default:
			if b.End < n {
				add(b.End)
			}
		}
	}
	return g, nil
}

// Profile holds measured execution behaviour of a program on its input data.
type Profile struct {
	Graph *Graph
	// ExecCount[i] is e_i, the number of executions of block i.
	ExecCount []int64
	// EdgeCount holds dynamic traversal counts, including edges only
	// discoverable dynamically (indirect jumps). The Observer batches
	// increments in pend; read it through IncomingEdges/ActivationProb or
	// after Finish, which drains the pending deltas.
	EdgeCount map[Edge]int64
	// InstCount is the total number of retired instructions.
	InstCount int64

	// isStart[i] reports whether instruction i leads a block (a dense mirror
	// of Blocks[BlockOf[i]].Start == i, one byte load on the observer path).
	isStart []bool
	// prevIdx is the previously retired instruction's index (-1 before the
	// first retirement); block-transition edges are derived from it lazily,
	// only when a block start retires.
	prevIdx int
	// incoming caches per-block incoming-edge adjacency, built lazily by
	// IncomingEdges and dropped whenever new observations arrive.
	incoming [][]Edge
	// pendK/pendN form a small direct-mapped write-back cache of edge-count
	// deltas: the observer fires per retired instruction, and the tight loops
	// that dominate a profile traverse the same few edges over and over, so
	// almost every increment lands in a pending slot instead of hashing into
	// the map. The tag packs From<<32|To into one word so the hit check is a
	// single register compare rather than a 16-byte struct comparison.
	pendK [pendSlots]uint64
	pendN [pendSlots]int64
	// pendDirty reports whether any slot holds an undrained delta, so the
	// frequent Finish calls on an already-drained profile cost one branch
	// instead of a sweep over the slots.
	pendDirty bool
}

// pendSlots sizes the pending edge cache (4 KiB of tags and counts); loops
// of up to a few dozen blocks map their edges to distinct slots with high
// probability. A profile hotspot showed the smaller table with a weak
// (from*31+to) hash thrashing between conflicting edges and spilling into
// the map every few instructions on the larger mibench kernels.
const pendSlots = 256

// pendHash is the Fibonacci multiplier (2^64/phi) spreading packed edge tags
// across slots; the high bits of the product decorrelate adjacent block ids.
const pendHash = 0x9E3779B97F4A7C15

// NewProfile prepares an empty profile for a graph.
func NewProfile(g *Graph) *Profile {
	isStart := make([]bool, len(g.Prog.Insts))
	for i := range g.Blocks {
		isStart[g.Blocks[i].Start] = true
	}
	return &Profile{
		Graph:     g,
		ExecCount: make([]int64, len(g.Blocks)),
		EdgeCount: map[Edge]int64{},
		isStart:   isStart,
		prevIdx:   -1,
	}
}

// Finish drains pending edge-count deltas into EdgeCount. Profile readers
// call it implicitly; it only needs to be called explicitly before reading
// the EdgeCount map directly. Idempotent.
func (pr *Profile) Finish() {
	if !pr.pendDirty {
		return
	}
	for i, n := range pr.pendN {
		if n != 0 {
			k := pr.pendK[i]
			pr.EdgeCount[Edge{From: int(k >> 32), To: int(uint32(k))}] += n
			pr.pendN[i] = 0
		}
	}
	pr.pendDirty = false
}

// Observe accumulates one retired instruction. It is the hot path behind
// Observer and is deliberately tiny — a byte load, a branch, and a store — so
// it inlines into a caller's fused observer; the block and edge bookkeeping
// runs only when a block start retires. Callers of Observe (rather than the
// Observer closure) own InstCount and must set it from the run's Stats.
func (pr *Profile) Observe(d *cpu.DynInst) {
	pr.incoming = nil
	if pr.isStart[d.Index] {
		pr.observeStart(d.Index, pr.prevIdx)
	}
	pr.prevIdx = d.Index
}

// ObserveBatch accumulates a batch of retired instructions, equivalent to
// calling Observe on each in order; the per-instruction work is a byte load
// off the block-start bitmap. Like Observe, it leaves InstCount to the
// caller.
func (pr *Profile) ObserveBatch(ds []cpu.DynInst) {
	pr.incoming = nil
	isStart := pr.isStart
	prev := pr.prevIdx
	for i := range ds {
		idx := ds[i].Index
		if isStart[idx] {
			pr.observeStart(idx, prev)
		}
		prev = idx
	}
	pr.prevIdx = prev
}

// observeStart charges the block entered at instruction index idx and the
// edge it was entered through (prevIdx is the previously retired
// instruction, -1 at program start). Block indices fit in 32 bits (blocks
// are at most one per instruction), so the pending tag packs the edge
// losslessly.
func (pr *Profile) observeStart(idx, prevIdx int) {
	blockOf := pr.Graph.BlockOf
	b := blockOf[idx]
	pr.ExecCount[b]++
	if prevIdx >= 0 {
		from := blockOf[prevIdx]
		k := uint64(uint32(from))<<32 | uint64(uint32(b))
		s := int((k*pendHash)>>56) & (pendSlots - 1)
		if pr.pendK[s] != k {
			if pr.pendN[s] != 0 {
				old := pr.pendK[s]
				pr.EdgeCount[Edge{From: int(old >> 32), To: int(uint32(old))}] += pr.pendN[s]
			}
			pr.pendK[s] = k
			pr.pendN[s] = 0
		}
		pr.pendN[s]++
		pr.pendDirty = true
	}
}

// Observer returns a cpu.Observer that accumulates this profile.
func (pr *Profile) Observer() cpu.Observer {
	return func(d *cpu.DynInst) {
		pr.InstCount++
		pr.Observe(d)
	}
}

// IncomingEdges returns the profiled incoming edges of a block, sorted by
// source block for determinism. The adjacency is materialized once per
// profile from the edge map and then served from the cache — the marginal
// solver asks for every block's incoming edges, and rescanning the whole map
// per block is quadratic in practice. Callers must not mutate the returned
// slice.
func (pr *Profile) IncomingEdges(block int) []Edge {
	pr.Finish()
	if pr.incoming == nil {
		in := make([][]Edge, len(pr.Graph.Blocks))
		for e := range pr.EdgeCount {
			if e.To >= 0 && e.To < len(in) {
				in[e.To] = append(in[e.To], e)
			}
		}
		for b := range in {
			s := in[b]
			sort.Slice(s, func(i, j int) bool { return s[i].From < s[j].From })
		}
		pr.incoming = in
	}
	if block < 0 || block >= len(pr.incoming) {
		return nil
	}
	return pr.incoming[block]
}

// ActivationProb returns p^a for an edge: the fraction of the target block's
// executions entered through this edge. The program entry block's missing
// mass corresponds to the program start.
func (pr *Profile) ActivationProb(e Edge) float64 {
	pr.Finish()
	if pr.ExecCount[e.To] == 0 {
		return 0
	}
	return float64(pr.EdgeCount[e]) / float64(pr.ExecCount[e.To])
}

// Scale multiplies all counts by k, emulating a proportionally larger input
// dataset. The Section 5 statistics consume only the counts, so scaling is
// exact for workloads whose block frequencies are input-size invariant.
func (pr *Profile) Scale(k int64) {
	pr.Finish()
	for i := range pr.ExecCount {
		pr.ExecCount[i] *= k
	}
	for e := range pr.EdgeCount {
		pr.EdgeCount[e] *= k
	}
	pr.InstCount *= k
}

// Clone returns a deep copy of the profile's counts (the Graph is shared, it
// is immutable after Build). Callers that need both the raw and the Scale()d
// view of one run — e.g. an unscaled Monte Carlo reference next to a scaled
// estimate — clone before scaling.
func (pr *Profile) Clone() *Profile {
	pr.Finish()
	cp := &Profile{
		Graph:     pr.Graph,
		ExecCount: make([]int64, len(pr.ExecCount)),
		EdgeCount: make(map[Edge]int64, len(pr.EdgeCount)),
		InstCount: pr.InstCount,
		isStart:   pr.isStart,
		prevIdx:   pr.prevIdx,
	}
	copy(cp.ExecCount, pr.ExecCount)
	for e, n := range pr.EdgeCount {
		cp.EdgeCount[e] = n
	}
	return cp
}

// SCC computes strongly connected components over the union of static edges
// and profiled dynamic edges. Components are returned in reverse topological
// order of the condensation reversed into *topological* order (sources
// first), so systems can be solved respecting data flow. Comp[i] is the
// component index of block i.
type SCC struct {
	Comps [][]int // Comps[c] lists block IDs, topologically ordered components
	Comp  []int   // block ID -> component index
}

// ComputeSCC runs Tarjan's algorithm.
func ComputeSCC(g *Graph, pr *Profile) *SCC {
	n := len(g.Blocks)
	adj := make([][]int, n)
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	addEdge := func(from, to int) {
		if !seen[from][to] {
			seen[from][to] = true
			adj[from] = append(adj[from], to)
		}
	}
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			addEdge(i, s)
		}
	}
	if pr != nil {
		pr.Finish()
		var edges []Edge
		for e := range pr.EdgeCount {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			addEdge(e.From, e.To)
		}
	}

	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	// Tarjan emits components in reverse topological order; reverse them.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	s := &SCC{Comps: comps, Comp: make([]int, n)}
	for c, comp := range comps {
		for _, b := range comp {
			s.Comp[b] = c
		}
	}
	return s
}
