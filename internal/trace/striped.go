package trace

// StripedStoreOf is a result store split into per-writer stripes for the
// sharded receive pipeline: worker i writes only Stripe(i), so AddHopAt
// and SetReachedAt never contend across workers. The engine's
// block-affinity dispatch guarantees every destination is written by
// exactly one worker, making the stripes' routes disjoint by
// construction; interface sets may overlap (the same router answers
// probes to destinations owned by different workers) and are unioned at
// Union.
type StripedStoreOf[A comparable] struct {
	stripes []*StoreOf[A]

	collectRoutes bool
	format        func(A) string
	less          func(A, A) bool
	hash          func(A) uint64
}

// NewStripedStoreOf returns an n-stripe slot-mode store over a
// blocks-block universe: worker i owns the blocks ≡ i (mod n), so its
// stripe gets ceil(blocks/n) slots and the engine addresses a block's
// record as slot block/n. ifaceHint is an interface-count hint for the
// whole scan; each stripe receives its share.
func NewStripedStoreOf[A comparable](n int, collectRoutes bool, format func(A) string, less func(A, A) bool, hash func(A) uint64, blocks, ifaceHint int) *StripedStoreOf[A] {
	if n < 1 {
		n = 1
	}
	st := &StripedStoreOf[A]{
		stripes:       make([]*StoreOf[A], n),
		collectRoutes: collectRoutes,
		format:        format,
		less:          less,
		hash:          hash,
	}
	perStripe := (blocks + n - 1) / n
	for i := range st.stripes {
		st.stripes[i] = NewSlotStoreOf(collectRoutes, format, less, hash,
			perStripe, ifaceHint/n)
	}
	return st
}

// Stripe returns stripe i, a plain single-writer store.
func (st *StripedStoreOf[A]) Stripe(i int) *StoreOf[A] { return st.stripes[i] }

// Union returns a read view over all stripes as one store: routes stay in
// place in their stripes (no copy — emit k-way merges the per-stripe
// sorted views), and the interface sets, which are small relative to the
// hop slabs, are unioned eagerly. Call after all writers have stopped;
// the stripes must not be written afterwards.
func (st *StripedStoreOf[A]) Union() *StoreOf[A] {
	out := UnionOf(st.stripes)
	if out == st.stripes[0] {
		return out
	}
	total := 0
	for _, s := range st.stripes {
		total += s.ifaces.Len()
	}
	out.ifaces = NewInterfaceTableOf[A](st.hash, total)
	for _, s := range st.stripes {
		s.ifaces.ForEach(func(a A) { out.ifaces.Add(a) })
	}
	return out
}

// UnionOf returns a route-only read view over stores: sorted iteration
// k-way merges the parts without copying them, and on equal destinations
// (allowed here, unlike the engine's disjoint stripes) emits the
// earlier-listed store's route first, so callers can group adjacent
// duplicates with a stable precedence. Stores that are themselves union
// views are flattened, preserving listing order. Unlike
// StripedStoreOf.Union, the view's own interface set stays empty —
// callers needing interfaces iterate the parts (the mid-scan checkpoint
// encoder's path). A single plain store is returned as itself.
func UnionOf[A comparable](stores []*StoreOf[A]) *StoreOf[A] {
	flat := make([]*StoreOf[A], 0, len(stores))
	for _, s := range stores {
		if s.parts != nil {
			flat = append(flat, s.parts...)
		} else {
			flat = append(flat, s)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &StoreOf[A]{
		collectRoutes: flat[0].collectRoutes,
		format:        flat[0].format,
		less:          flat[0].less,
		parts:         flat,
	}
}
