package pool

import "sync"

// Flight is one in-flight computation shared by every caller that joined
// its key. Done is closed once the leader has published its value; a
// zero value signals that the leader aborted without an answer, and
// followers must compute on their own.
type Flight[T any] struct {
	done chan struct{}
	val  T
}

// Done is closed when the leader publishes.
func (f *Flight[T]) Done() <-chan struct{} { return f.done }

// Val returns the leader's value. Valid only after Done is closed.
func (f *Flight[T]) Val() T { return f.val }

// Group coalesces duplicate concurrent computations by key (the
// singleflight pattern): the first caller for a key becomes the leader
// and runs the computation; later callers for the same key wait on the
// leader's Flight instead of starting their own. Entries live only while
// the leader runs — completed results are the caller's cache's job. The
// zero value is ready to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*Flight[T]
}

// Join returns the flight for key, creating it if absent. The creator is
// the leader (second return true) and must eventually call Finish.
func (g *Group[T]) Join(key string) (*Flight[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	if g.m == nil {
		g.m = make(map[string]*Flight[T])
	}
	f := &Flight[T]{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// Finish publishes the leader's value to the flight's followers and
// retires the key, so the next Join starts a fresh flight.
func (g *Group[T]) Finish(key string, f *Flight[T], v T) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.val = v
	close(f.done)
}
