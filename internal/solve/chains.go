package solve

import "sync"

// chainKey identifies the warm state of one update chain: the chain's current
// problem, by pointer, and the backend that solves it.  Keying by pointer
// rather than by content hash makes the state the chain's own — two chains
// over problems with equal content never share it, and no one-shot solve can
// reach it.
type chainKey struct {
	p      *Problem
	solver string
}

// chainState is the warm state of one update chain: a flat update-absorbing
// instance or, for a chain above the substrate budget, the sharded region
// oracle (one warm instance per region plus the carried consensus state).
// At most one of the two is set.
type chainState struct {
	inst   UpdatableInstance
	oracle *regionOracle
	stored int64
}

// chainTable holds the warm state of every open update chain.  Only a solve
// that starts a chain (Request.Updatable) and an Update step write to it,
// each after its solve succeeded.  An Update step takes its base problem's
// entry out before it mutates the state, so an entry is either in the table
// or owned by exactly one in-flight step, and a failed step simply drops what
// it took.  The table is bounded; past the bound the entry stored longest ago
// is evicted.
type chainTable struct {
	mu   sync.Mutex
	m    map[chainKey]chainState
	max  int
	tick int64
}

func newChainTable(max int) *chainTable {
	return &chainTable{m: make(map[chainKey]chainState), max: max}
}

// take removes and returns the warm state held for (p, solver); both of its
// fields are nil when the table holds none.
func (t *chainTable) take(p *Problem, solver string) chainState {
	k := chainKey{p, solver}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[k]
	delete(t.m, k)
	return st
}

// put stores st as the warm state of (p, solver), replacing whatever the key
// held, and evicts the oldest entries beyond the bound.
func (t *chainTable) put(p *Problem, solver string, st chainState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tick++
	st.stored = t.tick
	t.m[chainKey{p, solver}] = st
	for len(t.m) > t.max {
		var victim chainKey
		oldest := t.tick + 1
		for k, s := range t.m {
			if s.stored < oldest {
				victim, oldest = k, s.stored
			}
		}
		delete(t.m, victim)
	}
}

// sizes reports how many flat and how many sharded chains hold warm state.
func (t *chainTable) sizes() (flat, sharded int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.m {
		if st.oracle != nil {
			sharded++
		} else {
			flat++
		}
	}
	return flat, sharded
}
