package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"antsearch/internal/lint/analysis"
)

// CodecVer checks structs marked //antlint:codec — types whose binary or
// JSON encoding is a versioned schema commitment (the checkpoint state codec
// of internal/sim, the durable-store records of internal/cache). The marker
// commits three things in one auditable line:
//
//		//antlint:codec version=fooStateVersion fields=a,b,c encode=MarshalJSON decode=UnmarshalJSON
//
//	  - version= names the package-level integer constant guarding the wire
//	    form; it must exist, and in coverage mode both codec bodies must
//	    reference it (a version constant the codec never writes or checks
//	    guards nothing);
//	  - fields= is the committed field list, in declaration order. When the
//	    struct's actual field set drifts from it, the analyzer reports the
//	    drift and demands the fields= list be updated *and* the version
//	    constant bumped in the same change — the adjacency a reviewer needs
//	    to catch a silent schema change;
//	  - encode=/decode= (optional, a pair) name the codec methods; every
//	    committed field must be referenced by both bodies, so a field added to
//	    the struct and the fields= list but forgotten in decode is still a
//	    finding. Structs encoded reflectively (encoding/json records) omit the
//	    pair and commit the field list only.
var CodecVer = &analysis.Analyzer{
	Name: "codecver",
	Doc: "structs marked //antlint:codec must keep their committed field list and\n" +
		"schema-version constant in lockstep, and their codec methods must handle every field",
	Run: runCodecVer,
}

func runCodecVer(pass *analysis.Pass) (any, error) {
	dirs := ParseDirectives(pass, false)
	attached := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				dir, marked := dirs.MarkerDirective(VerbCodec, gen)
				if !marked {
					dir, marked = dirs.MarkerDirective(VerbCodec, ts)
				}
				if !marked {
					continue
				}
				dirs.Claim(VerbCodec, gen.Pos(), attached)
				dirs.Claim(VerbCodec, ts.Pos(), attached)
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					pass.Reportf(ts.Pos(), "antlint:codec marks %s, which is not a struct type; the codec contract applies to struct encodings", ts.Name.Name)
					continue
				}
				checkCodecStruct(pass, dirs, ts, dir)
			}
		}
	}
	dirs.CheckMarkers(pass, VerbCodec, "a struct type declaration", attached)
	return nil, nil
}

// codecSpec is one parsed //antlint:codec directive.
type codecSpec struct {
	version string
	fields  []string
	encode  string
	decode  string
}

// parseCodecSpec validates the directive's key=value vocabulary.
func parseCodecSpec(pass *analysis.Pass, dir Directive) (codecSpec, bool) {
	var spec codecSpec
	ok := true
	for _, arg := range dir.Args {
		key, value, found := strings.Cut(arg, "=")
		if !found || value == "" {
			pass.Reportf(dir.Pos, "antlint:codec argument %q is not key=value", arg)
			ok = false
			continue
		}
		switch key {
		case "version":
			spec.version = value
		case "fields":
			spec.fields = strings.Split(value, ",")
		case "encode":
			spec.encode = value
		case "decode":
			spec.decode = value
		default:
			pass.Reportf(dir.Pos, "antlint:codec has no %q key (known: version, fields, encode, decode)", key)
			ok = false
		}
	}
	if spec.version == "" {
		pass.Reportf(dir.Pos, "antlint:codec needs version=<Const> naming the schema-version constant")
		ok = false
	}
	if spec.fields == nil {
		pass.Reportf(dir.Pos, "antlint:codec needs fields=<f1,f2,...> committing the field list")
		ok = false
	}
	if (spec.encode == "") != (spec.decode == "") {
		pass.Reportf(dir.Pos, "antlint:codec needs encode= and decode= together (or neither, for reflectively encoded structs)")
		ok = false
	}
	return spec, ok
}

// checkCodecStruct applies the codec contract to one marked struct.
func checkCodecStruct(pass *analysis.Pass, dirs *Directives, ts *ast.TypeSpec, dir Directive) {
	spec, ok := parseCodecSpec(pass, dir)
	if !ok {
		return
	}
	typeName := ts.Name.Name
	obj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}

	// The version constant must exist as a package-level integer constant.
	var versionObj *types.Const
	if c, _ := pass.Pkg.Scope().Lookup(spec.version).(*types.Const); c != nil && c.Val().Kind() == constant.Int {
		versionObj = c
	} else if !dirs.Allowed(pass.Analyzer.Name, dir.Pos) {
		pass.Reportf(dir.Pos, "codec struct %s: version constant %s is not a package-level integer constant", typeName, spec.version)
	}

	// The committed field list must match the declaration exactly, in order.
	var actual []string
	fieldObjs := make(map[types.Object]string, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		actual = append(actual, f.Name())
		fieldObjs[f] = f.Name()
	}
	if strings.Join(actual, ",") != strings.Join(spec.fields, ",") {
		if !dirs.Allowed(pass.Analyzer.Name, ts.Pos()) && !dirs.Allowed(pass.Analyzer.Name, dir.Pos) {
			pass.Reportf(ts.Pos(), "codec struct %s: field set changed (committed fields=%s, actual %s); update the fields= list and bump %s in the same change",
				typeName, strings.Join(spec.fields, ","), strings.Join(actual, ","), spec.version)
		}
	}

	if spec.encode == "" {
		return
	}

	// Coverage mode: find both methods and demand every field and the
	// version constant appear in each body.
	for _, m := range []struct{ role, name string }{{"encode", spec.encode}, {"decode", spec.decode}} {
		fn := findMethod(pass, obj, m.name)
		if fn == nil {
			if !dirs.Allowed(pass.Analyzer.Name, dir.Pos) {
				pass.Reportf(dir.Pos, "codec struct %s: %s method %s not found in this package", typeName, m.role, m.name)
			}
			continue
		}
		used, usesVersion := bodyUses(pass, fn.Body, fieldObjs, versionObj)
		if versionObj != nil && !usesVersion && !dirs.Allowed(pass.Analyzer.Name, fn.Pos()) {
			pass.Reportf(fn.Pos(), "codec struct %s: %s method %s never references %s; a version the codec does not write or check guards nothing",
				typeName, m.role, m.name, spec.version)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !used[f] && !dirs.Allowed(pass.Analyzer.Name, fn.Pos()) {
				pass.Reportf(fn.Pos(), "codec struct %s: field %s is not handled by %s method %s; every committed field must round-trip",
					typeName, f.Name(), m.role, m.name)
			}
		}
	}
}

// findMethod returns the declaration of the named method on the given type
// (value or pointer receiver), or nil.
func findMethod(pass *analysis.Pass, obj *types.TypeName, name string) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != name || fn.Body == nil {
				continue
			}
			mobj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := mobj.Type().(*types.Signature)
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj() == obj {
				return fn
			}
		}
	}
	return nil
}

// bodyUses walks one body and reports which of the given field objects it
// references (selections and composite-literal keys both resolve through
// types.Info.Uses) and whether it references the version constant.
func bodyUses(pass *analysis.Pass, body *ast.BlockStmt, fields map[types.Object]string, version *types.Const) (map[types.Object]bool, bool) {
	used := make(map[types.Object]bool)
	usesVersion := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, isField := fields[obj]; isField {
			used[obj] = true
		}
		if version != nil && obj == types.Object(version) {
			usesVersion = true
		}
		return true
	})
	return used, usesVersion
}
