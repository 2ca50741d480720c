// Package couchdb is a small CouchDB-flavored document store used by the
// ServerlessBench applications (Alexa Skills' reminder skill and the
// data-analysis pipeline): named databases of JSON-shaped documents with
// _id/_rev optimistic concurrency, Mango-style equality selectors, and a
// change feed that triggers downstream function chains on updates
// (Figure 8(b)'s dashed box).
package couchdb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("couchdb: document not found")
	ErrConflict = errors.New("couchdb: document update conflict")
	ErrNoDB     = errors.New("couchdb: database does not exist")
)

// Document is a JSON-shaped document; "_id" and "_rev" are maintained by
// the store.
type Document map[string]any

// ID returns the document's _id.
func (d Document) ID() string {
	id, _ := d["_id"].(string)
	return id
}

// Rev returns the document's _rev.
func (d Document) Rev() string {
	rev, _ := d["_rev"].(string)
	return rev
}

// clone returns a deep copy so callers cannot mutate stored state.
func (d Document) clone() Document {
	return Document(cloneAny(map[string]any(d)).(map[string]any))
}

func cloneAny(v any) any {
	switch v := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(v))
		for k, val := range v {
			out[k] = cloneAny(val)
		}
		return out
	case []any:
		out := make([]any, len(v))
		for i, val := range v {
			out[i] = cloneAny(val)
		}
		return out
	default:
		return v
	}
}

// Change is one entry of a database's change feed.
type Change struct {
	Seq     int64
	ID      string
	Deleted bool
}

// Server holds named databases.
type Server struct {
	mu  sync.Mutex
	dbs map[string]*Database
}

// NewServer returns an empty CouchDB server.
func NewServer() *Server {
	return &Server{dbs: make(map[string]*Database)}
}

// CreateDB creates a database (idempotent).
func (s *Server) CreateDB(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	if db, ok := s.dbs[name]; ok {
		return db
	}
	db := &Database{name: name, docs: make(map[string]Document)}
	s.dbs[name] = db
	return db
}

// DB returns a database or ErrNoDB.
func (s *Server) DB(name string) (*Database, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDB, name)
	}
	return db, nil
}

// Names returns database names in lexical order.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Database is one document collection with a change feed.
type Database struct {
	mu        sync.Mutex
	name      string
	docs      map[string]Document
	seq       int64
	listeners []func(Change)
}

func nextRev(prev string, doc Document) string {
	gen := 1
	if prev != "" {
		if dash := strings.IndexByte(prev, '-'); dash > 0 {
			if n, err := strconv.Atoi(prev[:dash]); err == nil {
				gen = n + 1
			}
		}
	}
	h := fnv.New32a()
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v;", k, doc[k])
	}
	return fmt.Sprintf("%d-%08x", gen, h.Sum32())
}

// Put inserts or updates a document. For updates the incoming _rev must
// match the stored revision or ErrConflict is returned. The stored
// document (with its new _rev) is returned.
func (db *Database) Put(doc Document) (Document, error) {
	id := doc.ID()
	if id == "" {
		return nil, fmt.Errorf("couchdb: document missing _id")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	current, exists := db.docs[id]
	if exists && current.Rev() != doc.Rev() {
		return nil, fmt.Errorf("%w: %s (have %s, got %s)", ErrConflict, id, current.Rev(), doc.Rev())
	}
	if !exists && doc.Rev() != "" {
		return nil, fmt.Errorf("%w: %s does not exist but _rev given", ErrConflict, id)
	}
	stored := doc.clone()
	stored["_rev"] = nextRev(doc.Rev(), stored)
	db.docs[id] = stored
	db.seq++
	change := Change{Seq: db.seq, ID: id}
	listeners := append([]func(Change){}, db.listeners...)
	db.mu.Unlock()
	for _, fn := range listeners {
		fn(change)
	}
	db.mu.Lock()
	return stored.clone(), nil
}

// Get returns a document by id.
func (db *Database) Get(id string) (Document, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	doc, ok := db.docs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, db.name, id)
	}
	return doc.clone(), nil
}

// Delete removes a document; the given rev must match.
func (db *Database) Delete(id, rev string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	current, ok := db.docs[id]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, db.name, id)
	}
	if current.Rev() != rev {
		return fmt.Errorf("%w: %s", ErrConflict, id)
	}
	delete(db.docs, id)
	db.seq++
	change := Change{Seq: db.seq, ID: id, Deleted: true}
	listeners := append([]func(Change){}, db.listeners...)
	db.mu.Unlock()
	for _, fn := range listeners {
		fn(change)
	}
	db.mu.Lock()
	return nil
}

// Find returns documents whose fields equal every entry of selector
// (Mango's implicit $eq), ordered by _id.
func (db *Database) Find(selector map[string]any) []Document {
	db.mu.Lock()
	defer db.mu.Unlock()
	var ids []string
	for id, doc := range db.docs {
		match := true
		for k, want := range selector {
			if fmt.Sprintf("%v", doc[k]) != fmt.Sprintf("%v", want) {
				match = false
				break
			}
		}
		if match {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]Document, len(ids))
	for i, id := range ids {
		out[i] = db.docs[id].clone()
	}
	return out
}

// Subscribe registers fn to run on every subsequent change — the
// Cloud-trigger hook that starts the data-analysis chain when wage
// documents are inserted.
func (db *Database) Subscribe(fn func(Change)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.listeners = append(db.listeners, fn)
}
