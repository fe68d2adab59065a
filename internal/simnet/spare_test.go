package simnet

import (
	"strings"
	"testing"
)

func TestSparePoolReplaceFlow(t *testing.T) {
	p, err := NewSparePool(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks() != 3 || p.Available() != 2 {
		t.Fatalf("pool = %d ranks, %d spares", p.Ranks(), p.Available())
	}
	if got := p.NodeMap(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("initial NodeMap = %v, want identity", got)
	}

	nn, err := p.Replace(1)
	if err != nil || nn != 3 {
		t.Fatalf("Replace(1) = (%d, %v), want first spare (3)", nn, err)
	}
	if p.NodeOf(1) != 3 || p.Available() != 1 {
		t.Fatalf("after replace: NodeOf(1)=%d, Available=%d", p.NodeOf(1), p.Available())
	}
	// The retired node never comes back; a second failure of the same
	// rank consumes the next spare.
	nn, err = p.Replace(1)
	if err != nil || nn != 4 {
		t.Fatalf("second Replace(1) = (%d, %v), want spare 4", nn, err)
	}
	if _, err := p.Replace(0); err == nil {
		t.Fatal("Replace with an empty pool succeeded")
	} else if !strings.Contains(err.Error(), "spare pool exhausted") {
		t.Fatalf("exhaustion error = %v", err)
	}

	log := p.Replacements()
	want := []Replacement{{Rank: 1, OldNode: 1, NewNode: 3}, {Rank: 1, OldNode: 3, NewNode: 4}}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("replacement log = %v, want %v", log, want)
	}
}

func TestSparePoolValidation(t *testing.T) {
	if _, err := NewSparePool(0, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewSparePool(2, -1); err == nil {
		t.Error("negative spares accepted")
	}
	p, err := NewSparePool(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := p.Replace(5); rerr == nil || !strings.Contains(rerr.Error(), "unknown rank") {
		t.Errorf("Replace of unknown rank: %v", rerr)
	}
}

func TestSparePoolNodeMapIsACopy(t *testing.T) {
	p, err := NewSparePool(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NodeMap()
	m[0] = 99
	if p.NodeOf(0) != 0 {
		t.Fatal("mutating the returned NodeMap changed the pool")
	}
}

func TestNodeMapOverridesPlacement(t *testing.T) {
	// The same two ranks exchange the same message; only NodeMap
	// changes whether they share a node (fast Intra path) or sit on
	// separate nodes (slow Inter path).
	model := &Model{
		Name:  "smp",
		Inter: LinkModel{LatencyUS: 100, BandwidthMBs: 10, OverheadUS: 5},
		Intra: LinkModel{LatencyUS: 5, BandwidthMBs: 200, OverheadUS: 1},
	}
	run := func(nodeMap []int) float64 {
		m := *model
		m.NodeMap = nodeMap
		var arr float64
		_, _, err := Run(2, &m, func(n *Node) {
			if n.Rank == 0 {
				n.Send(1, 0, make([]float64, 1000))
			} else {
				n.Recv(0, 0)
				arr = n.Clock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	shared := run([]int{0, 0})
	split := run([]int{0, 1})
	if shared >= split {
		t.Fatalf("shared-node delivery %v not faster than split %v", shared, split)
	}
	// Sparse node ids are fine: only equality matters for routing.
	sparse := run([]int{3, 7})
	if sparse != split {
		t.Fatalf("sparse split placement %v, want %v (same Inter path)", sparse, split)
	}
}

func TestNodeMapValidation(t *testing.T) {
	model := fastModel()
	body := func(n *Node) { n.Compute(1e-6) }

	m := *model
	m.NodeMap = []int{0} // wrong length for 2 ranks
	if _, _, err := Run(2, &m, body); err == nil || !strings.Contains(err.Error(), "NodeMap") {
		t.Errorf("short NodeMap: err = %v", err)
	}
	m2 := *model
	m2.NodeMap = []int{0, -1}
	if _, _, err := Run(2, &m2, body); err == nil || !strings.Contains(err.Error(), "NodeMap") {
		t.Errorf("negative node id: err = %v", err)
	}
}
