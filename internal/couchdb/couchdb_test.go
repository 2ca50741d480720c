package couchdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewServer()
	db := s.CreateDB("wages")
	stored, err := db.Put(Document{"_id": "w1", "name": "ada", "base": 72000})
	if err != nil {
		t.Fatal(err)
	}
	if stored.Rev() == "" || !strings.HasPrefix(stored.Rev(), "1-") {
		t.Fatalf("rev = %q", stored.Rev())
	}
	got, err := db.Get("w1")
	if err != nil {
		t.Fatal(err)
	}
	if got["name"] != "ada" {
		t.Fatalf("doc = %v", got)
	}
}

func TestPutRequiresID(t *testing.T) {
	db := NewServer().CreateDB("d")
	if _, err := db.Put(Document{"x": 1}); err == nil {
		t.Fatal("missing _id accepted")
	}
}

func TestUpdateNeedsMatchingRev(t *testing.T) {
	db := NewServer().CreateDB("d")
	v1, _ := db.Put(Document{"_id": "a", "n": 1})
	// Update without rev conflicts.
	if _, err := db.Put(Document{"_id": "a", "n": 2}); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	// Update with stale rev conflicts.
	v2, err := db.Put(Document{"_id": "a", "_rev": v1.Rev(), "n": 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v2.Rev(), "2-") {
		t.Fatalf("rev = %q", v2.Rev())
	}
	if _, err := db.Put(Document{"_id": "a", "_rev": v1.Rev(), "n": 3}); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale rev err = %v", err)
	}
	// Creating a doc with a rev conflicts.
	if _, err := db.Put(Document{"_id": "new", "_rev": "1-abc"}); !errors.Is(err, ErrConflict) {
		t.Fatalf("phantom rev err = %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	db := NewServer().CreateDB("d")
	if _, err := db.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := NewServer().CreateDB("d")
	v, _ := db.Put(Document{"_id": "a"})
	if err := db.Delete("a", "wrong"); !errors.Is(err, ErrConflict) {
		t.Fatalf("wrong rev: %v", err)
	}
	if err := db.Delete("a", v.Rev()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("doc survived delete")
	}
	if err := db.Delete("a", v.Rev()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestFindSelector(t *testing.T) {
	db := NewServer().CreateDB("d")
	db.Put(Document{"_id": "1", "type": "wage", "role": "engineer"})
	db.Put(Document{"_id": "2", "type": "wage", "role": "manager"})
	db.Put(Document{"_id": "3", "type": "stats"})
	wages := db.Find(map[string]any{"type": "wage"})
	if len(wages) != 2 {
		t.Fatalf("wages = %d", len(wages))
	}
	if wages[0].ID() != "1" || wages[1].ID() != "2" {
		t.Fatal("results not ordered by _id")
	}
	engineers := db.Find(map[string]any{"type": "wage", "role": "engineer"})
	if len(engineers) != 1 || engineers[0].ID() != "1" {
		t.Fatalf("engineers = %v", engineers)
	}
	if got := db.Find(map[string]any{"type": "absent"}); len(got) != 0 {
		t.Fatalf("phantom results: %v", got)
	}
	if all := db.Find(nil); len(all) != 3 {
		t.Fatalf("Find(nil) = %d", len(all))
	}
}

func TestStoredDocsAreIsolated(t *testing.T) {
	db := NewServer().CreateDB("d")
	doc := Document{"_id": "a", "list": []any{1, 2}}
	stored, _ := db.Put(doc)
	stored["list"].([]any)[0] = 99
	fresh, _ := db.Get("a")
	if fresh["list"].([]any)[0] == 99 {
		t.Fatal("mutating a returned doc changed the store")
	}
}

func TestChangesFeed(t *testing.T) {
	db := NewServer().CreateDB("d")
	db.Put(Document{"_id": "a"})
	var changes []Change
	db.Subscribe(func(c Change) { changes = append(changes, c) })
	v, _ := db.Put(Document{"_id": "b"})
	db.Delete("b", v.Rev())
	if len(changes) != 2 || changes[0].Seq != 2 || changes[1].Seq != 3 {
		t.Fatalf("changes = %d", len(changes))
	}
	if changes[0].ID != "b" || changes[0].Deleted {
		t.Fatalf("first change: %+v", changes[0])
	}
	if !changes[1].Deleted {
		t.Fatalf("second change not a delete: %+v", changes[1])
	}
}

func TestSubscribeTriggers(t *testing.T) {
	// The data-analysis chain trigger: every insert fires the listener.
	db := NewServer().CreateDB("wages")
	var fired []string
	db.Subscribe(func(c Change) { fired = append(fired, c.ID) })
	db.Put(Document{"_id": "w1"})
	db.Put(Document{"_id": "w2"})
	if len(fired) != 2 || fired[0] != "w1" || fired[1] != "w2" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSubscriberCanWriteBack(t *testing.T) {
	// A listener that writes to another database (the analysis chain
	// storing stats) must not deadlock.
	s := NewServer()
	wages := s.CreateDB("wages")
	stats := s.CreateDB("stats")
	wages.Subscribe(func(c Change) {
		stats.Put(Document{"_id": "latest", "_rev": revOf(stats, "latest"), "count": len(wages.Find(nil))})
	})
	wages.Put(Document{"_id": "w1"})
	wages.Put(Document{"_id": "w2"})
	doc, err := stats.Get("latest")
	if err != nil {
		t.Fatal(err)
	}
	if doc["count"] != 2 {
		t.Fatalf("count = %v", doc["count"])
	}
}

func revOf(db *Database, id string) string {
	doc, err := db.Get(id)
	if err != nil {
		return ""
	}
	return doc.Rev()
}

func TestServerDBLookup(t *testing.T) {
	s := NewServer()
	if _, err := s.DB("missing"); !errors.Is(err, ErrNoDB) {
		t.Fatalf("err = %v", err)
	}
	s.CreateDB("b")
	s.CreateDB("a")
	if s.CreateDB("a") == nil {
		t.Fatal("idempotent create returned nil")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// Property: put then get returns the same scalar fields, and revisions
// advance monotonically in generation.
func TestPutGetProperty(t *testing.T) {
	db := NewServer().CreateDB("q")
	i := 0
	f := func(val int64, s string) bool {
		i++
		id := fmt.Sprintf("doc-%d", i)
		v1, err := db.Put(Document{"_id": id, "n": val, "s": s})
		if err != nil {
			return false
		}
		got, err := db.Get(id)
		if err != nil || got["n"] != val || got["s"] != s {
			return false
		}
		v2, err := db.Put(Document{"_id": id, "_rev": v1.Rev(), "n": val + 1})
		if err != nil {
			return false
		}
		return strings.HasPrefix(v1.Rev(), "1-") && strings.HasPrefix(v2.Rev(), "2-")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
