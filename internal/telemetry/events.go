package telemetry

import "clustergate/internal/uarch"

// BaseToEvents reconstructs an event-count struct from a base signal
// vector into ev, inverting ExtractBase; SwitchCycles, which is no base
// signal, reads zero. The power model consumes events, so this lets
// recorded telemetry drive power estimation without keeping full event
// structs per interval. It writes field by field, so a caller that
// accounts every interval reuses one struct and copies none.
func BaseToEvents(base []float64, ev *uarch.Events) {
	_ = base[39] // one bounds check for all forty signals
	ev.UopCacheMisses = uint64(base[0])
	ev.L2SilentEvictions = uint64(base[1])
	ev.WrongPathUops = uint64(base[2])
	ev.SQOccupancySum = uint64(base[3])
	ev.L1DReads = uint64(base[4])
	ev.StallCycles = uint64(base[5])
	ev.PhysRegRefs = uint64(base[6])
	ev.Loads = uint64(base[7])
	ev.L1DHits = uint64(base[8])
	ev.UopCacheHits = uint64(base[9])
	ev.UopsStalledOnDep = uint64(base[10])
	ev.UopsReady = uint64(base[11])
	ev.Mispredicts = uint64(base[12])
	ev.L1IMisses = uint64(base[13])
	ev.L1DMisses = uint64(base[14])
	ev.L2Misses = uint64(base[15])
	ev.Instrs = uint64(base[16])
	ev.ITLBMisses = uint64(base[17])
	ev.DTLBMisses = uint64(base[18])
	ev.Branches = uint64(base[19])
	ev.TakenBranches = uint64(base[20])
	ev.Stores = uint64(base[21])
	ev.L2Hits = uint64(base[22])
	ev.L2DirtyEvictions = uint64(base[23])
	ev.L1IHits = uint64(base[24])
	ev.FetchBubbles = uint64(base[25])
	ev.RedirectCycles = uint64(base[26])
	ev.BusyCycles = uint64(base[27])
	ev.ReadyWaitCycles = uint64(base[28])
	ev.SQStallCycles = uint64(base[29])
	ev.IssueC0 = uint64(base[30])
	ev.IssueC1 = uint64(base[31])
	ev.CrossForwards = uint64(base[32])
	ev.FPOps = uint64(base[33])
	ev.MulOps = uint64(base[34])
	ev.DivOps = uint64(base[35])
	ev.ModeSwitches = uint64(base[36])
	ev.RegTransferUops = uint64(base[37])
	ev.PrefetchFills = uint64(base[38])
	ev.Cycles = uint64(base[39])
	ev.SwitchCycles = 0
}
