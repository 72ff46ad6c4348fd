package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// calibRef is calibrate()'s wall time, in seconds, on a quiet 2-vCPU Xeon
// VM, the host the benchmark was sized on (about its 30th percentile
// there); calibCPURef is its CPU time, 7% more because the garbage
// collector runs alongside. Timings are reported at that host speed (see
// result.normalize).
const (
	calibRef    = 0.04
	calibCPURef = 0.043
)

// calibrate times a fixed piece of work that uses no repository code:
// building a random sparse graph (allocation), then shortest paths over it
// (pointer chasing and a binary heap), the kind of work the layers under
// test do. Its medians over a run say how fast the shared host ran during
// that run: the wall time includes the time the hypervisor gave the VM's
// CPUs to other guests, the CPU time does not. It runs between a
// workload's jobs or phases, never concurrently with the system under
// test, so no change to that system can move it. The process is otherwise
// idle then, so its CPU time is calibrate's.
func calibrate() (wall, cpu float64) {
	cpu0 := selfCPU()
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	const n, degree = 10000, 4
	type edge struct {
		to int32
		w  float64
	}
	adj := make([][]edge, n)
	for v := range adj {
		for k := 0; k < degree; k++ {
			u, w := rng.Intn(n), 1+rng.Float64()
			adj[v] = append(adj[v], edge{int32(u), w})
			adj[u] = append(adj[u], edge{int32(v), w})
		}
	}
	dist := make([]float64, n)
	for src := 0; src < 3; src++ {
		for i := range dist {
			dist[i] = -1
		}
		q := &calibHeap{{int32(src), 0}}
		for q.Len() > 0 {
			it := heap.Pop(q).(calibItem)
			if dist[it.v] >= 0 {
				continue
			}
			dist[it.v] = it.d
			for _, e := range adj[it.v] {
				if dist[e.to] < 0 {
					heap.Push(q, calibItem{e.to, it.d + e.w})
				}
			}
		}
	}
	return time.Since(start).Seconds(), (selfCPU() - cpu0).Seconds()
}

type calibItem struct {
	v int32
	d float64
}

type calibHeap []calibItem

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(calibItem)) }
func (h *calibHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
