package simclock

// Component labels where a slice of simulated time is spent. Every clock
// advance carries one: the Clock has no advance without it. The taxonomy
// partitions a query's elapsed time for latency attribution: because the
// labels are applied at the clock itself, the per-component sums are equal
// to elapsed time by construction, not by reconciliation.
type Component uint8

// The attribution components, in canonical rendering order.
const (
	// CompOther is time not claimed by any specific component (RAM device
	// transfers, test-fixture advances).
	CompOther Component = iota
	// CompHDDSeek is mechanical positioning: head travel plus rotational
	// latency on the backing drive.
	CompHDDSeek
	// CompHDDTransfer is HDD command overhead plus media transfer.
	CompHDDTransfer
	// CompSSDRead is flash read service time (cache or index SSD).
	CompSSDRead
	// CompSSDProgram is flash program/trim service time.
	CompSSDProgram
	// CompSSDEraseStall is foreground time spent waiting for the cache SSD
	// to finish background program/erase work: the issuer of a flush or
	// trim waits here while the device's command queue is full.
	CompSSDEraseStall
	// CompCPUIntersect is engine CPU cost: postings decode and list
	// intersection.
	CompCPUIntersect
	// CompCacheBookkeeping is cache-manager L1 access cost (memory probes
	// and transfers).
	CompCacheBookkeeping
	// CompQueueWait is time a query spent queued behind other work before
	// (or instead of) executing: shard-queue delay in the serving layer,
	// and the whole latency of a coalesced (singleflight-follower) serve.
	CompQueueWait

	// NumComponents bounds arrays indexed by Component.
	NumComponents
)

// componentNames are the stable wire names used in traces, profiles and
// reports. Index by Component.
var componentNames = [NumComponents]string{
	"other",
	"hdd_seek",
	"hdd_transfer",
	"ssd_read",
	"ssd_program",
	"ssd_erase_stall",
	"cpu_intersect",
	"cache_bookkeeping",
	"queue_wait",
}

// componentTable declares, for every attribution component, why it exists
// as a distinct slice of the taxonomy. TestComponentTable checks the table
// is total — adding a Component constant without an entry (or leaving a
// stale entry behind) fails the tests. NumComponents is the array bound,
// not a component, and must not appear here.
var componentTable = map[Component]string{
	CompOther:            "the residual bucket: RAM transfers and test-fixture advances, kept explicit so Σattrib≡elapsed never needs a fudge term",
	CompHDDSeek:          "mechanical positioning dominates HDD latency; the paper's core argument prices it separately from transfer",
	CompHDDTransfer:      "command overhead plus media transfer; scales with request size where seek does not",
	CompSSDRead:          "flash read service time on either SSD role (cache or index)",
	CompSSDProgram:       "program/trim cost of cache admission; the write-amplification side of caching on flash",
	CompSSDEraseStall:    "queries stalled behind background program/erase when the cache SSD's command queue is full; the GC-interference term",
	CompCPUIntersect:     "postings decode and list intersection; the CPU term that block compression trades against I/O",
	CompCacheBookkeeping: "L1 memory probes and transfers in the cache manager",
	CompQueueWait:        "shard-queue delay and coalesced-serve latency in the serving layer; the only component born outside the device stack",
}

// String returns the component's stable wire name.
func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return "other"
}

// ComponentByName maps a wire name back to its Component; ok is false for
// unknown names.
func ComponentByName(name string) (Component, bool) {
	for i, n := range componentNames {
		if n == name {
			return Component(i), true
		}
	}
	return CompOther, false
}
