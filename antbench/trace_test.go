package main

import "testing"

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		// Two children overlapping on [30, 40]: together they cover [10, 60].
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60},
		// A child running past its parent counts only inside the parent.
		{id: 4, parent: 1, start: 80, end: 120},
		// A grandchild is subtracted from its own parent only.
		{id: 5, parent: 2, start: 15, end: 35},
		// Two identical grandchildren cover their parent once.
		{id: 6, parent: 3, start: 40, end: 50},
		{id: 7, parent: 3, start: 40, end: 50},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - (50 + 20),
		2: 30 - 20,
		3: 30 - 10,
		4: 40,
		5: 20,
		6: 10,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredDisjointAndContainedIntervals(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{
		{start: 70, end: 90},
		{start: 0, end: 10},
		{start: 72, end: 80}, // inside [70, 90]
		{start: 95, end: 95}, // empty
		{start: -20, end: -5},
	}
	if got := covered(parent, kids); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered with no children = %d, want 0", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	sp := r.start(spanOp, 0, 1)
	sp.end()
	if sp.id() != 0 || r.take() != nil {
		t.Fatal("a nil recorder must hand out inert spans")
	}
}

func TestRecorderKeepsParentsAndOps(t *testing.T) {
	r := newRecorder()
	root := r.start(spanOp, 0, 7)
	child := r.start(spanKey, root.id(), 7)
	child.end()
	root.end()
	spans := r.take()
	if len(spans) != 2 || r.take() != nil {
		t.Fatalf("take returned %d spans, then not empty", len(spans))
	}
	if spans[0].parent != spans[1].id || spans[0].op != 7 || spans[0].kind != spanKey {
		t.Fatalf("child span %+v does not point at root %+v", spans[0], spans[1])
	}
	if spans[0].start < spans[1].start || spans[0].end > spans[1].end {
		t.Fatalf("child %+v not inside root %+v", spans[0], spans[1])
	}
}
