package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"clustergate/internal/obs"
	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// Deployment-trie observability: intervals served from a stored node,
// intervals simulated into new nodes, intervals replayed from a checkpoint
// to reach a divergence, and the bytes the tries hold (the gauge's peak
// lands in run manifests as "core.trie.bytes.peak"). A trie's bytes are
// released when the garbage collector frees it with its trace, so the
// level counts unreachable tries until the next collection.
var (
	trieHits    = obs.NewCounter("core.trie.hits")
	trieNodes   = obs.NewCounter("core.trie.nodes")
	trieCatchup = obs.NewCounter("core.trie.catchup")
	trieBytes   = obs.NewGauge("core.trie.bytes")
)

// checkpointEvery is the trie depth spacing of runner checkpoints: a
// deployment that leaves the trie at depth d replays the d mod
// checkpointEvery intervals since the last checkpoint on its path before
// it simulates on. Halving it roughly halves that catch-up and doubles the
// checkpoints' memory, ~3.3 KB each. At 4, 8 and 16 the quick paperbench
// run caught up 1,336, 5,444 and 13,940 intervals (it simulates 85,236)
// and its tries peaked at 109, 69 and 49 MB.
const checkpointEvery = 8

// deployTrie is every interval the exact deployments of one trace have
// simulated under one interval size and deployment length, stored by
// schedule: a node is one interval under one (mode, DRAM derate) step,
// reached from the root by the steps before it. The cycle model's output
// depends on nothing else — the tape fixes the core and the warmup — so a
// deployment whose schedule is on the trie reads its intervals from the
// nodes, and only a new schedule suffix is simulated. Nodes at every
// checkpointEvery-th depth hold the runner's checkpoint after their
// interval, so a deployment that leaves the trie resumes from the nearest
// one on its path rather than from the start of the trace.
//
// Keying by length keeps every counter independent of the order in which
// deployments arrive: all deployments of a trie end at the same depth, so
// no deployment ever extends another's leaf, and the catch-up intervals
// sum to a function of the trie's final shape.
type deployTrie struct {
	rec      *recordedTape
	interval int

	// mu guards the nodes' children and end. Node creation is serialised:
	// a deployment takes the write lock at its first miss and holds it to
	// its end, so every node is simulated exactly once.
	mu   sync.RWMutex
	root trieNode
	// end is the depth at which the trace runs dry, -1 until a deployment
	// finds it. Positions depend only on depth, so it holds for every
	// schedule.
	end  int
	held *trieHeld
}

// trieHeld keeps a trie's bytes in the core.trie.bytes gauge until the trie
// is collected (see uarch's heldBytes: the finalizer sits on this small
// object so that it does not keep the nodes alive for another collection).
type trieHeld struct {
	n atomic.Int64
	_ int64
}

// trieNode is one simulated interval: the step it ran under, its
// base-signal vector and whether that passed telemetry.ImplausibleVector,
// plus a checkpoint at every checkpointEvery-th depth.
type trieNode struct {
	mode      uarch.Mode
	derate    float64
	base      []float64
	plausible bool
	cp        *uarch.Checkpoint
	kids      []*trieNode
}

// child returns the node for the step after n, or nil. derate is compared
// exactly: it is the value the cycle model is handed.
func (n *trieNode) child(mode uarch.Mode, derate float64) *trieNode {
	for _, k := range n.kids {
		if k.mode == mode && k.derate == derate {
			return k
		}
	}
	return nil
}

func newDeployTrie(rec *recordedTape, interval int) *deployTrie {
	t := &deployTrie{rec: rec, interval: interval, end: -1, held: &trieHeld{}}
	runtime.SetFinalizer(t.held, func(h *trieHeld) { trieBytes.Add(-h.n.Load()) })
	return t
}

// source returns an interval source for one deployment. The deployment
// must close it when it ends.
func (t *deployTrie) source() *trieSource {
	return &trieSource{t: t, n: &t.root}
}

// trieSource is the exact interval source: it serves a deployment's
// intervals from its trace's trie while the schedule stays on it, and at
// its first miss resumes the cycle model from the nearest checkpoint on
// its path, catches up to the divergence and simulates on, adding nodes.
type trieSource struct {
	t     *deployTrie
	n     *trieNode // the node of the last interval served
	depth int       // intervals served
	// cp is the deepest node on the path that holds a checkpoint (nil for
	// the root, the tape's warm state), since the path's nodes after it.
	cp    *trieNode
	since []*trieNode
	// locked reports that the source holds the trie's write lock; r is
	// the cycle model once the deployment has left the trie.
	locked bool
	r      *uarch.Runner
}

// NextInterval returns the interval after the current node under the step
// (mode, derate): the stored vector on a hit, otherwise the one just
// simulated and stored, with the plausibility verdict taken when the node
// was stored. The deployment shares the vector and only reads it.
func (s *trieSource) NextInterval(_ int, mode uarch.Mode, derate float64) ([]float64, bool) {
	if s.r == nil {
		kid, dry := s.lookup(mode, derate)
		if dry {
			return nil, false
		}
		if kid != nil {
			trieHits.Inc()
			s.advance(kid)
			return kid.base, kid.plausible
		}
		s.resume()
	}
	s.r.SetMode(mode)
	s.r.SetMemDerate(derate)
	delta, n := s.r.Next()
	if n == 0 {
		s.t.end = s.depth
		return nil, false
	}
	base := telemetry.ExtractBase(delta)
	kid := &trieNode{mode: mode, derate: derate, base: base, plausible: telemetry.ImplausibleVector(base) == ""}
	size := int(unsafe.Sizeof(*kid)) + 8*len(kid.base)
	if (s.depth+1)%checkpointEvery == 0 {
		kid.cp = s.r.Checkpoint()
		size += kid.cp.Size()
	}
	s.n.kids = append(s.n.kids, kid)
	s.t.held.n.Add(int64(size))
	trieBytes.Add(int64(size))
	trieNodes.Inc()
	s.advance(kid)
	return kid.base, kid.plausible
}

// lookup finds the current node's child for the step and whether the
// trace has run dry. Lookups share the read lock until the first miss;
// then the source takes the write lock, which it holds until it is closed,
// and looks again, since another deployment may have added the child in
// between. The lock is held across the deployment's calls into its
// controller, so a controller must not deploy on the same trace.
func (s *trieSource) lookup(mode uarch.Mode, derate float64) (kid *trieNode, dry bool) {
	if !s.locked {
		s.t.mu.RLock()
		kid, dry = s.n.child(mode, derate), s.depth == s.t.end
		s.t.mu.RUnlock()
		if kid != nil || dry {
			return kid, dry
		}
		s.t.mu.Lock()
		s.locked = true
	}
	return s.n.child(mode, derate), s.depth == s.t.end
}

// advance moves the source to its child kid.
func (s *trieSource) advance(kid *trieNode) {
	s.n = kid
	s.depth++
	if kid.cp != nil {
		s.cp, s.since = kid, s.since[:0]
	} else {
		s.since = append(s.since, kid)
	}
}

// resume starts the cycle model at the current node: from the nearest
// checkpoint on the path, replaying the steps since it.
func (s *trieSource) resume() {
	if s.cp == nil {
		rec := s.t.rec
		s.r = rec.tape.Runner(uarch.ModeHighPerf, rec.warmup, s.t.interval)
	} else {
		s.r = s.cp.cp.Resume()
	}
	for _, n := range s.since {
		s.r.SetMode(n.mode)
		s.r.SetMemDerate(n.derate)
		s.r.Next()
	}
	trieCatchup.Add(int64(len(s.since)))
}

// close releases the trie's write lock if the deployment took it.
func (s *trieSource) close() {
	if s.locked {
		s.locked = false
		s.t.mu.Unlock()
	}
}
