package netsim

import (
	"fmt"
	"math"
)

// This file holds the read-only state checks consumed by the
// internal/invariants layer. Both entry points are strictly observational:
// they allocate only local scratch, draw no randomness, and schedule no
// events, so a checked run's trajectory is identical to an unchecked one.

// VerifyState checks the structural invariants of the active flow set:
// the active list and the per-link flow index agree with each other, no
// active flow crosses a downed link (SetLinkState reroutes or aborts
// victims synchronously, so this holds even while a reallocation is
// pending), and every flow's residue is within [0, SizeBytes]. When no
// reallocation is pending it additionally verifies the allocation itself
// via CheckInvariants (capacity and bottleneck conditions).
func (n *Network) VerifyState() error {
	if err := n.soa.verifyState(); err != nil {
		return err
	}
	if n.soa.tcp != nil {
		if err := n.soa.tcp.verify(); err != nil {
			return err
		}
	}
	if n.reallocPendingNow() {
		// Rates are stale until the coalesced dirty event fires at this
		// same timestamp; the allocation conditions are not meaningful yet.
		return nil
	}
	return n.CheckInvariants()
}

func (c *soaCore) verifyState() error {
	for i, s := range c.active {
		if int(c.listIdx[s]) != i {
			return fmt.Errorf("netsim: flow %d listIdx %d but held at position %d", c.fid[s], c.listIdx[s], i)
		}
		if c.state[s] != slotActive {
			return fmt.Errorf("netsim: flow %d in active set but state %d (done, free or not yet active)", c.fid[s], c.state[s])
		}
		if c.remaining[s] < 0 || c.remaining[s] > float64(c.spec[s].SizeBytes) {
			return fmt.Errorf("netsim: flow %d remaining %.3g outside [0, %d]", c.fid[s], c.remaining[s], c.spec[s].SizeBytes)
		}
		path, pos := c.path(s), c.linkPos(s)
		for j, lid := range path {
			if c.topo.linkDown[lid] {
				return fmt.Errorf("netsim: flow %d active on downed link %d", c.fid[s], lid)
			}
			p := pos[j]
			if p < 0 || int(p) >= len(c.linkFlows[lid]) || c.linkFlows[lid][p] != s {
				return fmt.Errorf("netsim: flow %d link index stale on link %d (pos %d)", c.fid[s], lid, p)
			}
		}
	}
	indexed := 0
	for _, lst := range c.linkFlows {
		indexed += len(lst)
	}
	pathSum := 0
	for _, s := range c.active {
		pathSum += int(c.pathLen[s])
	}
	if indexed != pathSum {
		return fmt.Errorf("netsim: per-link index holds %d entries, active paths cover %d", indexed, pathSum)
	}
	// Slot accounting: every slot is exactly one of free-listed, in the
	// active list, or mid-lifecycle (propagating/loopback).
	inFree := 0
	for _, s := range c.freeSlots {
		if c.state[s] != slotFree {
			return fmt.Errorf("netsim: slot %d on the free list but in state %d", s, c.state[s])
		}
		inFree++
	}
	nFree := 0
	for s := range c.state {
		if c.state[s] == slotFree {
			nFree++
		}
	}
	if inFree != nFree {
		return fmt.Errorf("netsim: %d slots marked free but %d on the free list", nFree, inFree)
	}
	return nil
}

// CheckAllocatorOracle recomputes the max-min rate vector with the exact
// arithmetic of referenceMaxMinRates — from-scratch progressive filling
// into fresh local buffers — and compares it against the rates the
// production incremental allocator installed. It returns nil when the
// allocator is not AllocMaxMin, when a reallocation is pending (the
// installed rates are intentionally stale), or when the vectors agree
// within rateTolerance.
func (n *Network) CheckAllocatorOracle() error {
	if n.cfg.Allocator != AllocMaxMin || n.reallocPendingNow() || n.ActiveFlows() == 0 {
		return nil
	}
	if n.soa.tcp != nil {
		// TCP rates are demand-limited; the unconstrained max-min oracle
		// does not apply. tcpCore.verify covers the TCP-mode invariants.
		return nil
	}
	// Assemble the oracle inputs from the flow core's view.
	c := n.soa
	nf := len(c.active)
	paths := make([][]LinkID, nf)
	installed := make([]float64, nf)
	ids := make([]uint64, nf)
	for i, s := range c.active {
		paths[i], installed[i], ids[i] = c.path(s), c.rate[s], c.fid[s]
	}

	remCap := make([]float64, len(n.topo.links))
	cnt := make([]int, len(n.topo.links))
	for i, l := range n.topo.links {
		remCap[i] = l.CapacityBps
	}
	for _, p := range paths {
		for _, lid := range p {
			cnt[lid]++
		}
	}
	rates := make([]float64, nf)
	frozen := make([]bool, nf)
	remaining := nf
	for remaining > 0 {
		best := -1
		bestShare := math.Inf(1)
		for i := range remCap {
			if cnt[i] == 0 {
				continue
			}
			share := remCap[i] / float64(cnt[i])
			if share < bestShare {
				bestShare = share
				best = i
			}
		}
		if best < 0 {
			// Stranded flows (no loaded links) freeze at the loopback
			// rate, mirroring freezeStranded.
			for i := range frozen {
				if !frozen[i] {
					rates[i] = n.cfg.LoopbackBps
					frozen[i] = true
					remaining--
				}
			}
			break
		}
		for i, p := range paths {
			if frozen[i] {
				continue
			}
			crosses := false
			for _, lid := range p {
				if lid == LinkID(best) {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rates[i] = bestShare
			frozen[i] = true
			remaining--
			for _, lid := range p {
				remCap[lid] -= bestShare
				if remCap[lid] < 0 {
					remCap[lid] = 0
				}
				cnt[lid]--
			}
		}
	}
	for i := range paths {
		if !rateEqual(installed[i], rates[i]) {
			return fmt.Errorf("netsim: flow %d rate %.6g bps diverges from max-min oracle %.6g bps", ids[i], installed[i], rates[i])
		}
	}
	return nil
}
