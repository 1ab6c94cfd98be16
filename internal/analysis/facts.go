// Facts: cross-function, cross-package propagation of properties an
// analyzer proves about package-level objects ("spawns a goroutine",
// "blocks on a channel", "reads the wall clock"). The design mirrors
// golang.org/x/tools/go/analysis facts, shrunk to one in-process store:
//
//   - a Fact is any value naming its kind; facts never leave the
//     process, so fact types need not be serializable;
//   - facts attach to package-level functions and methods, keyed by
//     (package path, [Receiver.]Name) rather than by object identity,
//     so a method called through an instantiated generic type (a
//     distinct types.Func) finds the fact its declaration exported;
//   - the driver analyzes packages in dependency order and hands every
//     pass one shared FactStore, so a fact exported while analyzing
//     internal/resilience is importable while analyzing internal/server.
package analysis

import "go/types"

// Fact is one exportable property of a package-level object. FactKind
// names the fact's type and must be unique within the suite.
type Fact interface {
	FactKind() string
}

// ObjRef names a package-level object by path: functions by name,
// methods as "Receiver.Name". It is the key facts are stored under.
type ObjRef struct {
	Pkg  string
	Name string
}

// RefOf derives the portable reference for obj, reporting false for
// objects facts cannot attach to (builtins, locals, nil packages).
func RefOf(obj types.Object) (ObjRef, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "" {
		return ObjRef{}, false
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ObjRef{}, false
			}
			name = named.Obj().Name() + "." + name
		}
	}
	return ObjRef{Pkg: obj.Pkg().Path(), Name: name}, true
}

// FactStore holds every fact exported so far in one driver run, across
// packages and analyzers. It is not safe for concurrent use; the driver
// is single-threaded by design (deterministic diagnostics).
type FactStore struct {
	objs map[ObjRef]map[string]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{objs: map[ObjRef]map[string]Fact{}}
}

// ExportObject records fact f about ref, overwriting a same-kind fact.
func (s *FactStore) ExportObject(ref ObjRef, f Fact) {
	m := s.objs[ref]
	if m == nil {
		m = map[string]Fact{}
		s.objs[ref] = m
	}
	m[f.FactKind()] = f
}

// Object returns the fact of the given kind recorded about ref.
func (s *FactStore) Object(ref ObjRef, kind string) (Fact, bool) {
	f, ok := s.objs[ref][kind]
	return f, ok
}

// ExportObjectFact records fact f about obj for later passes of the
// same run. Objects that RefOf cannot name are ignored.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if p.Facts == nil {
		return
	}
	if ref, ok := RefOf(obj); ok {
		p.Facts.ExportObject(ref, f)
	}
}

// ImportObjectFact retrieves the fact of the given kind recorded about
// obj by this pass or an earlier one.
func (p *Pass) ImportObjectFact(obj types.Object, kind string) (Fact, bool) {
	if p.Facts == nil {
		return nil, false
	}
	ref, ok := RefOf(obj)
	if !ok {
		return nil, false
	}
	return p.Facts.Object(ref, kind)
}
