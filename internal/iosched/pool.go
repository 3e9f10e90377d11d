package iosched

// Request pooling for scale runs.
//
// A hollow-datanode simulation keeps millions of requests in flight;
// allocating each *Request individually scatters them across the heap
// and charges the garbage collector for every one. RequestPool packs
// records into contiguous slabs and recycles completed records through
// a free list, so steady-state submission allocates only when the live
// population grows past its previous peak. Slabs grow geometrically,
// from minSlabSize records up to the pool's cap, so a pool backs at
// most about twice its peak population: a thousand per-node pools of a
// few hundred live requests each no longer pin (and zero) a full-cap
// slab apiece.

// requestSlabSize is the default cap on Request records per slab. At
// ~128 B per record a full slab is ~½ MB, large enough to amortize
// allocator overhead.
const requestSlabSize = 4096

// minSlabSize is the size of a pool's first slab; each later slab
// doubles the previous one, up to the pool's cap.
const minSlabSize = 64

// RequestPool is a slab-backed free-list allocator for Request records.
// It is not safe for concurrent use: in sharded simulations each shard
// owns its own pool, matching the single-owner engine discipline.
type RequestPool struct {
	slabs [][]Request
	free  []*Request
	next  int // records handed out of the newest slab
	slab  int // cap on records per slab
	used  int // records handed out of all slabs

	outstanding int
}

// NewRequestPool returns a pool whose slabs (contiguous allocations of
// records) grow up to slabSize records; sizes < 1 take the default.
func NewRequestPool(slabSize int) *RequestPool {
	if slabSize < 1 {
		slabSize = requestSlabSize
	}
	return &RequestPool{slab: slabSize}
}

// Get returns a zeroed Request. The caller fills the public fields and
// submits it; ownership returns to the pool only through Put.
func (p *RequestPool) Get() *Request {
	p.outstanding++
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	if len(p.slabs) == 0 || p.next == len(p.slabs[len(p.slabs)-1]) {
		n := min(minSlabSize, p.slab)
		if k := len(p.slabs); k > 0 {
			n = min(2*len(p.slabs[k-1]), p.slab)
		}
		p.slabs = append(p.slabs, make([]Request, n))
		p.next = 0
	}
	r := &p.slabs[len(p.slabs)-1][p.next]
	p.next++
	p.used++
	return r
}

// Put recycles a completed request. The record is zeroed — public
// fields, closures, and all private scheduling state — so a later Get
// hands out a Request indistinguishable from a freshly allocated one.
// The caller must guarantee no scheduler or probe still holds the
// pointer: the safe recycle point is the OnDone callback, which every
// scheduler in the tree invokes after its last touch of the record.
func (p *RequestPool) Put(r *Request) {
	*r = Request{}
	p.free = append(p.free, r)
	p.outstanding--
}

// Outstanding returns Get minus Put — the live record count.
func (p *RequestPool) Outstanding() int { return p.outstanding }

// Allocated returns the number of records ever handed out of slabs:
// the pool's historical peak population. The slabs back at most about
// twice that many.
func (p *RequestPool) Allocated() int { return p.used }
