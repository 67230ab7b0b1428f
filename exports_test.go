package merlin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsHaveOutsideUsers fails on any exported top-level
// func, method or type under internal/ that only its own package's tests
// use. Such an export is test-only product code: it belongs in the
// package's _test.go files, or nowhere. An export counts as used when its
// name appears, other than where it is declared, in a non-test file of the
// module (bench/, cmd/ and examples/ included) or in a _test.go file of
// another directory. Constants and variables are out of scope: protocol
// tables may carry values nothing names yet. The match is by identifier,
// not by resolved object, so a name shared with a used symbol passes.
func TestInternalExportsHaveOutsideUsers(t *testing.T) {
	type export struct {
		name, label string
		pos         token.Position
		dir         string
	}
	var exports []export
	// uses[name] is the set of directories naming name outside its
	// declarations; "" stands for any non-test file.
	uses := map[string]map[string]bool{}
	use := func(name, where string) {
		if uses[name] == nil {
			uses[name] = map[string]bool{}
		}
		uses[name][where] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		isTest := strings.HasSuffix(path, "_test.go")
		where := ""
		if isTest {
			where = dir
		}
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				decls[decl.Name] = true
				label := decl.Name.Name
				if decl.Recv != nil {
					// A method's receiver names its type without using
					// it, and a method of an unexported type is reachable
					// only through an interface.
					recv := receiverType(decl.Recv.List[0].Type)
					decls[recv] = true
					if !recv.IsExported() {
						continue
					}
					label = recv.Name + "." + label
				}
				if !isTest && decl.Name.IsExported() {
					exports = append(exports, export{decl.Name.Name, label, fset.Position(decl.Name.Pos()), dir})
				}
			case *ast.GenDecl:
				if decl.Tok != token.TYPE {
					continue
				}
				for _, spec := range decl.Specs {
					name := spec.(*ast.TypeSpec).Name
					decls[name] = true
					if !isTest && name.IsExported() {
						exports = append(exports, export{name.Name, name.Name, fset.Position(name.Pos()), dir})
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				use(id.Name, where)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, e := range exports {
		if !strings.HasPrefix(filepath.ToSlash(e.dir), "internal/") {
			continue
		}
		used := false
		for where := range uses[e.name] {
			if where != e.dir {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, e.pos.String()+": "+e.label)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no user outside its package's tests", u)
	}
}

// receiverType returns the identifier naming a method receiver's type.
func receiverType(x ast.Expr) *ast.Ident {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		default:
			return x.(*ast.Ident)
		}
	}
}
