package platform

// Run is a maximal stretch of consecutive host IDs whose hosts share a
// cluster, a clock rate and a memory size: the unit a selector can accept or
// reject, and count free hosts in, without looking at the hosts one by one.
type Run struct {
	First    HostID
	N        int
	ClockGHz float64
	MemoryMB int
}

// RunTable groups a platform's runs by cluster. The dissertation's LSDEs are
// homogeneous clusters (§IV.2.4), so every generated platform has exactly
// one run per cluster; a hand-built platform whose clusters mix clock rates
// or memory sizes has one run per stretch.
type RunTable struct {
	runs  []Run
	start []int // cluster c's runs are runs[start[c]:start[c+1]]
}

// Len returns the total number of runs.
func (t *RunTable) Len() int { return len(t.runs) }

// Cluster returns cluster c's runs in ascending host-ID order, and the index
// of the first of them in the table-wide numbering [0, Len()). The slice is
// shared and read-only.
func (t *RunTable) Cluster(c int) (runs []Run, base int) {
	return t.runs[t.start[c]:t.start[c+1]], t.start[c]
}

// Runs returns (building and caching on first use) the platform's run table.
// Membership follows each host's Cluster field, which Validate pins to the
// cluster spans.
func (p *Platform) Runs() *RunTable {
	if t := p.runs.Load(); t != nil {
		return t
	}
	t := buildRuns(p)
	p.runs.CompareAndSwap(nil, t) // losing the race is fine: use the winner's
	return p.runs.Load()
}

func buildRuns(p *Platform) *RunTable {
	// Runs in host-ID order first, then a counting sort by cluster: stable,
	// so each cluster's runs stay in host-ID order.
	var inOrder []Run
	var cluster []int
	for i, h := range p.Hosts {
		if n := len(inOrder); n > 0 && cluster[n-1] == h.Cluster &&
			inOrder[n-1].ClockGHz == h.ClockGHz && inOrder[n-1].MemoryMB == h.MemoryMB {
			inOrder[n-1].N++
			continue
		}
		inOrder = append(inOrder, Run{First: HostID(i), N: 1, ClockGHz: h.ClockGHz, MemoryMB: h.MemoryMB})
		cluster = append(cluster, h.Cluster)
	}
	t := &RunTable{runs: make([]Run, len(inOrder)), start: make([]int, len(p.Clusters)+1)}
	for _, c := range cluster {
		t.start[c+1]++
	}
	for c := range p.Clusters {
		t.start[c+1] += t.start[c]
	}
	next := append([]int(nil), t.start[:len(p.Clusters)]...)
	for i, r := range inOrder {
		t.runs[next[cluster[i]]] = r
		next[cluster[i]]++
	}
	return t
}
