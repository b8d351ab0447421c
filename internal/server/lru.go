package server

import (
	"container/list"
	"slices"

	"tsperr/internal/core"
)

// lru is a fixed-capacity least-recently-used result cache mapping request
// keys to completed reports. It is not goroutine-safe: the server accesses
// it only under its mu, in the same critical sections that manage the
// flight table, so a cache fill and its flight retirement are atomic.
type lru struct {
	capacity int
	order    *list.List // front = most recently used
	items    map[string]*list.Element
}

// lruEntry is one cached result.
type lruEntry struct {
	key string
	rep *core.Report
}

func newLRU(capacity int) *lru {
	return &lru{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the cached report for key, marking it most recently used.
func (c *lru) get(key string) (*core.Report, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).rep, true
}

// add inserts or refreshes key, evicting the least recently used entry when
// over capacity.
func (c *lru) add(key string, rep *core.Report) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).rep = rep
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, rep: rep})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// len reports the number of cached results (the /metrics gauge).
func (c *lru) len() int { return c.order.Len() }

// retained is a capped store of async jobs or batches: adding to a full
// store evicts the oldest finished item, or refuses when every item is
// still unfinished — store backpressure. Like lru it is accessed only
// under the server's mu.
type retained[T any] struct {
	limit int
	items map[string]T
	order []string // insertion order, oldest first
}

func newRetained[T any](limit int) *retained[T] {
	return &retained[T]{limit: limit, items: make(map[string]T)}
}

// add stores v under id, reporting false when the store is full and no
// item satisfies finished.
func (r *retained[T]) add(id string, v T, finished func(T) bool) bool {
	if len(r.items) >= r.limit {
		i := slices.IndexFunc(r.order, func(id string) bool { return finished(r.items[id]) })
		if i < 0 {
			return false
		}
		delete(r.items, r.order[i])
		r.order = slices.Delete(r.order, i, i+1)
	}
	r.items[id] = v
	r.order = append(r.order, id)
	return true
}

// remove drops an item that never got a computation (queue rejection).
func (r *retained[T]) remove(id string) {
	delete(r.items, id)
	r.order = slices.DeleteFunc(r.order, func(o string) bool { return o == id })
}
