package iosched

// Request pooling.
//
// A hollow-datanode simulation keeps millions of requests in flight;
// allocating each *Request individually scatters them across the heap
// and charges the garbage collector for every one. RequestPool packs
// records into contiguous slabs and recycles completed records through
// a free list, so steady-state submission allocates only when the live
// population grows past its previous peak. Slabs grow geometrically,
// from minSlabSize records up to requestSlabSize, so a pool backs at
// most about twice its peak population: a thousand per-node pools of a
// few hundred live requests each no longer pin (and zero) a full-cap
// slab apiece. Only a scheduler puts a record back, after its Done.

// requestSlabSize is the cap on Request records per slab. At
// ~144 B per record a full slab is ~½ MB, large enough to amortize
// allocator overhead.
const requestSlabSize = 4096

// minSlabSize is the size of a pool's first slab; each later slab
// doubles the previous one, up to requestSlabSize.
const minSlabSize = 64

// RequestPool is a slab-backed free-list allocator for Request records;
// the zero value is an empty pool. It is not safe for concurrent use:
// each cluster node owns one, used only from the node's shard.
type RequestPool struct {
	slabs [][]Request
	free  []*Request
	next  int // records handed out of the newest slab

	outstanding int
}

// Get returns a zeroed Request stamped with this pool. The caller
// fills the public fields and submits it, and keeps no pointer past its
// completion or rejection.
func (p *RequestPool) Get() *Request {
	p.outstanding++
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		r.pool = p
		return r
	}
	if len(p.slabs) == 0 || p.next == len(p.slabs[len(p.slabs)-1]) {
		n := minSlabSize
		if k := len(p.slabs); k > 0 {
			n = min(2*len(p.slabs[k-1]), requestSlabSize)
		}
		p.slabs = append(p.slabs, make([]Request, n))
		p.next = 0
	}
	r := &p.slabs[len(p.slabs)-1][p.next]
	p.next++
	r.pool = p
	return r
}

// put recycles a record after the scheduler's last touch (or its
// rejection); a nil pool, a caller-allocated record's, ignores it. The
// record is zeroed, so a later Get hands out a Request
// indistinguishable from a freshly allocated one.
func (p *RequestPool) put(r *Request) {
	if p == nil {
		return
	}
	*r = Request{}
	p.free = append(p.free, r)
	p.outstanding--
}

// Outstanding returns the records handed out and not yet recycled.
func (p *RequestPool) Outstanding() int { return p.outstanding }
