package cost

import "math"

// This file holds the request router of the non-separable access-cost
// path: requests are assigned one unit at a time to the server of minimal
// latency + current marginal load (Section II-B), deterministically in
// ascending access-point order with ties broken toward the lowest server
// index.
//
// The router maintains the per-server cost keys incrementally — a unit
// only changes the marginal load (and therefore the key) of the server it
// was routed to — so the LoadFunc.Marginal interface call happens once per
// routed unit instead of once per unit × server. On top of that, bulky
// pairs route through a binary min-heap over the keys, turning the
// per-unit argmin from O(servers) into O(log servers); both paths pick
// exactly the server the retained per-unit greedy scan picks
// (TestHeapRouterMatchesNaiveGreedy), so routing is bit-identical.

// heapRouterMinUnits and heapRouterMinServers gate the heap path: below
// either bound the plain scan over the cached keys is at least as fast as
// maintaining the heap.
const (
	heapRouterMinUnits   = 8
	heapRouterMinServers = 8
)

// routeGreedy routes demand d over the servers and returns the summed
// request latency; s.eta receives the per-server request volumes. The
// scratch slices str (per-server strengths), marg (cached marginal loads)
// and key (latency + marginal per server, rebuilt per access point) must
// be sized by the caller; eta and marg must describe the current volumes.
func (s *Session) routeGreedy(servers []int, d Demand) float64 {
	e := s.e
	str, eta, marg, key := s.off, s.eta, s.marg, s.key
	var latency float64
	pairs := d.Pairs()
	for lo := 0; lo < len(pairs); lo += pinBlock {
		for j, p := range s.pinNext(pairs, lo) {
			row := s.rows[j]
			for i, sv := range servers {
				key[i] = row[sv] + marg[i]
			}
			if p.Count >= heapRouterMinUnits && len(servers) >= heapRouterMinServers {
				latency = s.routeHeap(servers, row, p.Count, latency)
				continue
			}
			for u := 0; u < p.Count; u++ {
				best, bestCost := 0, math.MaxFloat64
				for i := range servers {
					if c := key[i]; c < bestCost {
						best, bestCost = i, c
					}
				}
				latency += row[servers[best]]
				eta[best]++
				marg[best] = e.load.Marginal(str[best], eta[best])
				key[best] = row[servers[best]] + marg[best]
			}
		}
	}
	clear(s.rows)
	return latency
}

// routeHeap routes count units of one access point through a binary
// min-heap over (key, server index), threading the caller's latency
// accumulator through so the per-unit additions happen in exactly the
// scan's order. Only the assigned server's key changes per unit, and the
// changed element sits at the root, so one sift-down restores the heap;
// the root is always the lowest-index server among those of minimal key,
// matching the scan's tie-break.
func (s *Session) routeHeap(servers []int, row []float64, count int, latency float64) float64 {
	ns := len(servers)
	s.heap = growI32(s.heap, ns)
	h, key := s.heap, s.key
	for i := range h {
		h[i] = int32(i)
	}
	for i := ns/2 - 1; i >= 0; i-- {
		siftDown(h, key, i)
	}
	e := s.e
	for u := 0; u < count; u++ {
		best := int(h[0])
		latency += row[servers[best]]
		s.eta[best]++
		s.marg[best] = e.load.Marginal(s.off[best], s.eta[best])
		key[best] = row[servers[best]] + s.marg[best]
		siftDown(h, key, 0)
	}
	return latency
}

// heapLess orders heap entries by key, ties by server index, so the root
// is the first index the sequential scan would have picked.
func heapLess(key []float64, a, b int32) bool {
	return key[a] < key[b] || (key[a] == key[b] && a < b)
}

// siftDown restores the heap property below position i.
func siftDown(h []int32, key []float64, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && heapLess(key, h[r], h[l]) {
			m = r
		}
		if !heapLess(key, h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
