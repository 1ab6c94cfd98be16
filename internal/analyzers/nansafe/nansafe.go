// Package nansafe guards the serve API's JSON stability contract:
// encoding/json rejects NaN and ±Inf outright, and several report
// fields are NaN by design, so every type that reaches json.Marshal or
// (*json.Encoder).Encode with raw float fields must carry a NaN-safe
// MarshalJSON (the finitePtr idiom in rainshine_json.go).
//
// The pass inspects each marshal call's argument type: named struct
// types (or composites reaching them) with float64/float32 fields that
// do not implement json.Marshaler are reported. Calls lexically inside
// a MarshalJSON method are exempt — they are the safe marshalers
// themselves, whose alias-embedding pattern intentionally touches raw
// floats.
package nansafe

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"rainshine/internal/analysis"
)

// Analyzer is the nansafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "nansafe",
	Doc:  "require a NaN-safe MarshalJSON on types with raw float fields that are JSON-marshaled",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg := marshaledArg(pass, call)
			if arg == nil || insideMarshalJSON(file, call) {
				return true
			}
			t := pass.TypesInfo.TypeOf(arg)
			if t == nil {
				return true
			}
			if path := rawFloatPath(t, nil); path != "" {
				pass.Reportf(call.Pos(), "json-marshaling %s whose field %s is a raw float: NaN/Inf would fail to encode; add a NaN-safe MarshalJSON (finitePtr idiom)", types.TypeString(deref(t), types.RelativeTo(pass.Pkg)), path)
			}
			return true
		})
	}
	return nil
}

// marshaledArg returns the value argument of a recognized marshal call.
func marshaledArg(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	fn := analysis.ObjectOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" || len(call.Args) == 0 {
		return nil
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		return call.Args[0]
	}
	return nil
}

func insideMarshalJSON(file *ast.File, call *ast.CallExpr) bool {
	fd, ok := analysis.FuncFor(file, call.Pos()).(*ast.FuncDecl)
	return ok && fd.Name.Name == "MarshalJSON"
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// jsonMarshalerLike reports whether t (or *t) has a MarshalJSON method.
func jsonMarshalerLike(t types.Type) bool {
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "MarshalJSON" {
				return true
			}
		}
	}
	return false
}

// rawFloatPath walks t the way encoding/json would and returns the
// dotted path of the first raw float field reached without passing
// through a custom marshaler, or "" when every float is guarded.
func rawFloatPath(t types.Type, seen []*types.Named) string {
	switch t := t.(type) {
	case *types.Pointer:
		return rawFloatPath(t.Elem(), seen)
	case *types.Named:
		for _, s := range seen {
			if s == t {
				return ""
			}
		}
		if jsonMarshalerLike(t) {
			return ""
		}
		return rawFloatPath(t.Underlying(), append(seen, t))
	case *types.Basic:
		if t.Kind() == types.Float64 || t.Kind() == types.Float32 {
			return "(value)"
		}
	case *types.Slice:
		return prefixPath("[]", rawFloatPath(t.Elem(), seen))
	case *types.Array:
		return prefixPath("[]", rawFloatPath(t.Elem(), seen))
	case *types.Map:
		return prefixPath("[]", rawFloatPath(t.Elem(), seen))
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if !f.Exported() && !f.Embedded() {
				continue // unexported fields are not marshaled
			}
			if tag := t.Tag(i); tagSkipsField(tag) {
				continue
			}
			ft := f.Type()
			if b, ok := ft.Underlying().(*types.Basic); ok && (b.Kind() == types.Float64 || b.Kind() == types.Float32) {
				if _, isNamed := ft.(*types.Named); !isNamed || !jsonMarshalerLike(ft) {
					return f.Name()
				}
				continue
			}
			if p := rawFloatPath(ft, seen); p != "" {
				return prefixPath(f.Name()+".", p)
			}
		}
	}
	return ""
}

func prefixPath(prefix, p string) string {
	if p == "" {
		return ""
	}
	if p == "(value)" {
		if prefix == "[]" {
			return "[] element"
		}
		return prefix[:len(prefix)-1]
	}
	return prefix + p
}

// tagSkipsField reports whether a `json:"-"` tag excludes the field.
func tagSkipsField(tag string) bool {
	name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
	return name == "-"
}
