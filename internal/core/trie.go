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

// Deployment-trie observability: intervals served from a stored edge,
// intervals simulated into new edges, the new edges whose end state an
// earlier edge had already reached, and the bytes the tries hold (the
// gauge's peak lands in run manifests as "core.trie.bytes.peak"). A trie's
// bytes are released when the garbage collector frees it with its trace,
// so the level counts unreachable tries until the next collection.
var (
	trieHits   = obs.NewCounter("core.trie.hits")
	trieNodes  = obs.NewCounter("core.trie.nodes")
	trieMerges = obs.NewCounter("core.trie.merges")
	trieBytes  = obs.NewGauge("core.trie.bytes")
)

// deployTrie is every interval the exact deployments of one trace have
// simulated under one interval size and deployment length, stored as a
// DAG over machine states. A node is a runner state between two
// intervals, in the canonical shift-free form of uarch.Checkpoint, at one
// depth; an edge is one interval under one (mode, DRAM derate) step from
// a node, with its stored interval and the node its end state encodes to. The
// cycle model's output depends on nothing but the state and the step, so
// a deployment whose next step leaves its node by a stored edge reads the
// interval from the edge, and only a new (state, step) pair is simulated.
// Two schedules that part and reach the same state again share the nodes
// and edges from there on: a deployment rejoins the DAG one interval
// after it leaves it, and a later miss resumes the cycle model from its
// own node's checkpoint.
//
// Keying by length keeps every counter independent of the order in which
// deployments arrive: the states a schedule passes through do not depend
// on the order, so the nodes are the distinct states the deployments
// reach, the simulated edges the distinct (state, step) pairs they take,
// and the merges the edges into a state that are not its first.
type deployTrie struct {
	rec      *recordedTape
	interval int

	// mu guards the nodes' edges, states and end. Edge creation is
	// serialised: a deployment takes the write lock at its first miss and
	// holds it to its end, so every edge is simulated exactly once.
	mu sync.RWMutex
	// root is the tape's warm state, before the first interval.
	root trieNode
	// states holds every node but the root by its checkpoint, which
	// includes the tape position and so the depth.
	states map[uarch.Checkpoint]*trieNode
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

// trieNode is one machine state: its checkpoint (empty for the root) and
// the steps simulated from it.
type trieNode struct {
	cp    uarch.Checkpoint
	edges []*trieEdge
}

// trieEdge is one simulated interval: the step it ran under, the interval
// as deployments read it, and the node of the state it ended in.
type trieEdge struct {
	mode   uarch.Mode
	derate float64
	iv     StoredInterval
	to     *trieNode
}

// edge returns the edge for the step from n, or nil. derate is compared
// exactly: it is the value the cycle model is handed.
func (n *trieNode) edge(mode uarch.Mode, derate float64) *trieEdge {
	for _, e := range n.edges {
		if e.mode == mode && e.derate == derate {
			return e
		}
	}
	return nil
}

func newDeployTrie(rec *recordedTape, interval int) *deployTrie {
	t := &deployTrie{rec: rec, interval: interval, states: map[uarch.Checkpoint]*trieNode{}, end: -1, held: &trieHeld{}}
	runtime.SetFinalizer(t.held, func(h *trieHeld) { trieBytes.Add(-h.n.Load()) })
	return t
}

// shadowCheck, set only by tests, is handed every interval an exact
// deployment serves, with a tape runner of the deployment's own to step
// along its schedule, so that the DAG can be held to live execution
// interval by interval.
var shadowCheck func(shadow *uarch.Runner, depth int, e *trieEdge)

// source returns an interval source for one deployment. The deployment
// must close it when it ends.
func (t *deployTrie) source() *trieSource {
	s := &trieSource{t: t, n: &t.root}
	if shadowCheck != nil {
		s.shadow = t.rec.tape.Runner(uarch.ModeHighPerf, t.rec.warmup, t.interval)
	}
	return s
}

// trieSource is the exact interval source: it serves a deployment's
// intervals from its trace's DAG while its steps are stored, and at a
// miss simulates the step on the cycle model, resumed from the current
// node's checkpoint unless the model already stands there.
type trieSource struct {
	t     *deployTrie
	n     *trieNode // the node of the state after the last interval served
	depth int       // intervals served
	hits  int64     // intervals served from stored edges, counted at close
	// locked reports that the source holds the trie's write lock; r is the
	// cycle model when it stands in the state of n, nil after a hit.
	locked bool
	r      *uarch.Runner
	buf    []byte        // checkpoint scratch
	shadow *uarch.Runner // see shadowCheck
}

// NextInterval returns the interval after the current node under the step
// (mode, derate): the stored one on a hit, otherwise the one just
// simulated and stored. The deployment shares it and only reads it.
func (s *trieSource) NextInterval(_ int, mode uarch.Mode, derate float64) *StoredInterval {
	e, dry := s.lookup(mode, derate)
	if dry {
		return nil
	}
	if e != nil {
		s.hits++
		s.r = nil
	} else if e = s.simulate(mode, derate); e == nil {
		return nil
	}
	s.n = e.to
	s.depth++
	if shadowCheck != nil {
		shadowCheck(s.shadow, s.depth, e)
	}
	return &e.iv
}

// simulate runs the step from the current node on the cycle model and
// stores its edge, linking it to the node of its end state if an earlier
// edge reached that state; it returns nil, and records the depth, if the
// trace has run dry.
func (s *trieSource) simulate(mode uarch.Mode, derate float64) *trieEdge {
	if s.r == nil {
		rec := s.t.rec
		if s.n == &s.t.root {
			s.r = rec.tape.Runner(uarch.ModeHighPerf, rec.warmup, s.t.interval)
		} else {
			s.r = rec.tape.Resume(s.n.cp, s.t.interval)
		}
	}
	s.r.SetMode(mode)
	s.r.SetMemDerate(derate)
	delta, n := s.r.Next()
	if n == 0 {
		s.t.end = s.depth
		return nil
	}
	e := &trieEdge{mode: mode, derate: derate, iv: NewStoredInterval(telemetry.ExtractBase(delta))}
	// The edge, its vector and its pointer in the node's edges.
	size := int(unsafe.Sizeof(*e)) + 8*len(e.iv.Base) + 8
	s.buf = s.r.AppendCheckpoint(s.buf[:0])
	if e.to = s.t.states[uarch.Checkpoint(s.buf)]; e.to != nil {
		trieMerges.Inc()
	} else {
		e.to = &trieNode{cp: uarch.Checkpoint(s.buf)}
		s.t.states[e.to.cp] = e.to
		// The node, its checkpoint, and its key and value in states.
		size += int(unsafe.Sizeof(*e.to)) + len(e.to.cp) + int(unsafe.Sizeof(e.to.cp)) + 8
	}
	s.n.edges = append(s.n.edges, e)
	s.t.held.n.Add(int64(size))
	trieBytes.Add(int64(size))
	trieNodes.Inc()
	return e
}

// lookup finds the current node's edge for the step and whether the trace
// has run dry. Lookups share the read lock until the first miss; then the
// source takes the write lock, which it holds until it is closed, and
// looks again, since another deployment may have added the edge in
// between. The lock is held across the deployment's calls into its
// controller, so a controller must not deploy on the same trace.
func (s *trieSource) lookup(mode uarch.Mode, derate float64) (e *trieEdge, dry bool) {
	if !s.locked {
		s.t.mu.RLock()
		e, dry = s.n.edge(mode, derate), s.depth == s.t.end
		s.t.mu.RUnlock()
		if e != nil || dry {
			return e, dry
		}
		s.t.mu.Lock()
		s.locked = true
	}
	return s.n.edge(mode, derate), s.depth == s.t.end
}

// close adds the deployment's hits to core.trie.hits and releases the
// trie's write lock if the deployment took it.
func (s *trieSource) close() {
	trieHits.Add(s.hits)
	s.hits = 0
	if s.locked {
		s.locked = false
		s.t.mu.Unlock()
	}
}
