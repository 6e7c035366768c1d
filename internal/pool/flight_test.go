package pool

import "testing"

type answer struct {
	status int
	body   string
}

// An aborted leader publishes the zero value; followers see it and know
// to compute on their own. Other keys never share a flight.
func TestGroupAbortAndKeys(t *testing.T) {
	var g Group[answer]
	a, _ := g.Join("a")
	b, leader := g.Join("b")
	if !leader || a == b {
		t.Fatal("distinct keys must lead distinct flights")
	}
	f, leader := g.Join("a")
	if leader || f != a {
		t.Fatal("second join of a open key must follow its flight")
	}
	g.Finish("a", a, answer{})
	<-f.Done()
	if f.Val() != (answer{}) {
		t.Fatalf("aborted flight carried %+v", f.Val())
	}
	select {
	case <-b.Done():
		t.Fatal("finishing one key closed another")
	default:
	}
}
