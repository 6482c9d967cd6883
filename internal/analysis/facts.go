package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a serializable observation one analyzer run exports about
// one of a package's package-level objects, to be imported when a
// dependent package is analyzed — the mechanism that turns the suite's
// single-package analyzers into interprocedural, whole-program ones
// (mirroring golang.org/x/tools/go/analysis facts).
//
// Facts must be JSON-marshalable structs; implement the marker method
// on the pointer type:
//
//	type Retains struct{ Params []int }
//	func (*Retains) AFact() {}
//
// Identity is structural, not pointer-based: facts are keyed by
// (package path, object key, fact type), where the object key is a
// stable textual path ("FuncName" or "Recv.Method" — see ObjectKey).
// That makes facts survive the loader type-checking a package twice
// (once as an import, once as a test-augmented target). The store
// keeps each fact as JSON, so an importer gets its own copy and cannot
// change what the exporter recorded.
type Fact interface {
	AFact() // dummy marker method
}

// factKey addresses one fact in a store.
type factKey struct {
	pkg string
	obj string
	typ string
}

// FactStore holds every fact exported so far in a driver run. One store
// is shared across all packages of a run so facts flow from
// dependencies to dependents; it is not safe for concurrent use (the
// driver is single-threaded by design — see the determinism notes in
// driver.go).
type FactStore struct {
	m map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]json.RawMessage)}
}

func factType(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

// ObjectKey returns the stable textual path of a package-level object:
// "Name" for functions, types, and vars, "Recv.Name" for methods. Only
// package-level objects have keys; local objects return "".
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	// Package-level objects live in the package scope.
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}

// put marshals and stores one fact.
func (s *FactStore) put(pkg, obj string, fact Fact) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("analysis: marshaling fact %s: %w", factType(fact), err)
	}
	s.m[factKey{pkg: pkg, obj: obj, typ: factType(fact)}] = data
	return nil
}

// get unmarshals one fact into the caller's pointer, reporting whether
// it was present.
func (s *FactStore) get(pkg, obj string, fact Fact) bool {
	data, ok := s.m[factKey{pkg: pkg, obj: obj, typ: factType(fact)}]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// ExportObjectFact associates fact with a package-level object
// (typically a function or method of the package under analysis).
// Objects without a stable key (locals) are silently skipped.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	if err := p.facts.put(obj.Pkg().Path(), key, fact); err != nil {
		panic(err)
	}
}

// ImportObjectFact copies the fact previously exported for obj (by this
// pass or the analysis of another package) into the provided pointer,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.facts.get(obj.Pkg().Path(), key, fact)
}
