package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive names. Directives are magic comments of the form
// "//wavedag:<name> [args]" (no space after //, like //go:build). A
// directive in a declaration's doc comment applies to the declaration;
// a directive trailing a statement applies to that source line.
const (
	// DirLockfree marks a function as part of the lock-free read
	// plane: it must not block, allocate, or call in-module functions
	// that are not themselves marked lock-free.
	DirLockfree = "lockfree"
	// DirAllowAlloc waives the allocation checks of DirLockfree for
	// one function (grow paths, translation buffers).
	DirAllowAlloc = "allow-alloc"
	// DirAllowBlocking, on a line, waives the blocking/callee checks
	// of DirLockfree for the calls on that line (documented fallbacks
	// to a mutex-serialised path).
	DirAllowBlocking = "allow-blocking"
	// DirPoolHandoff waives the Get/Put pairing check: the function
	// hands the pooled or pinned object to its caller (or to a
	// published structure) instead of returning it itself.
	DirPoolHandoff = "pool-handoff"
	// DirAcquire, with the release method name as argument, marks a
	// function whose callers pin a refcounted resource: every caller
	// must call the named release method or carry DirPoolHandoff.
	DirAcquire = "acquire"
	// DirRefcount marks a function as part of the audited refcount
	// core; manipulating a "refs" counter anywhere else is a finding.
	DirRefcount = "refcount"
	// DirReadonly marks a method as logically read-only (it may
	// refresh an internal cache); the publish analyzer does not count
	// calls to it as mutations.
	DirReadonly = "readonly"
)

const directivePrefix = "//wavedag:"

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Contract string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Contract, d.Message)
}

// Analyzer is one corpus-wide check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(c *Corpus, report func(pos token.Pos, format string, args ...any))
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{lockfreeAnalyzer, publishAnalyzer, poolpairAnalyzer, errwrapAnalyzer}
}

// Run executes the analyzers over the corpus and returns the findings
// sorted by position then message.
func Run(c *Corpus, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		name := a.Name
		a.Run(c, func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:      c.Fset.Position(pos),
				Contract: name,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Contract != b.Contract {
			return a.Contract < b.Contract
		}
		return a.Message < b.Message
	})
	return diags
}

// FuncInfo is one function or method declaration of the corpus, with
// its parsed directives.
type FuncInfo struct {
	Pkg        *Package
	Decl       *ast.FuncDecl
	Obj        *types.Func
	Directives map[string]string
}

// Has reports whether the function carries the directive.
func (fi *FuncInfo) Has(dir string) bool {
	_, ok := fi.Directives[dir]
	return ok
}

type lineKey struct {
	file string
	line int
}

// Corpus is the set of type-checked module packages plus the
// cross-package indexes the analyzers share: the function/method
// declaration table keyed by canonical name (annotation propagation
// works across per-package type-check runs, where *types.Func
// identities differ) and the line-directive table.
type Corpus struct {
	Fset     *token.FileSet
	Packages []*Package

	modulePaths map[string]bool
	funcs       map[string]*FuncInfo
	decls       []*FuncInfo
	lineDirs    map[lineKey]map[string]string
}

func newCorpus(fset *token.FileSet) *Corpus {
	return &Corpus{
		Fset:        fset,
		modulePaths: map[string]bool{},
		funcs:       map[string]*FuncInfo{},
		lineDirs:    map[lineKey]map[string]string{},
	}
}

// parseDirective splits a "//wavedag:name args" comment.
func parseDirective(text string) (name, args string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i+1:]), true
	}
	return rest, "", true
}

func directivesFromDoc(doc *ast.CommentGroup) map[string]string {
	if doc == nil {
		return nil
	}
	var dirs map[string]string
	for _, cm := range doc.List {
		if name, args, ok := parseDirective(cm.Text); ok {
			if dirs == nil {
				dirs = map[string]string{}
			}
			dirs[name] = args
		}
	}
	return dirs
}

// index builds the cross-package tables after all packages are loaded.
func (c *Corpus) index() {
	for _, p := range c.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					name, args, ok := parseDirective(cm.Text)
					if !ok {
						continue
					}
					pos := c.Fset.Position(cm.Pos())
					key := lineKey{pos.Filename, pos.Line}
					if c.lineDirs[key] == nil {
						c.lineDirs[key] = map[string]string{}
					}
					c.lineDirs[key][name] = args
				}
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := p.Info.Defs[d.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &FuncInfo{Pkg: p, Decl: d, Obj: obj, Directives: directivesFromDoc(d.Doc)}
				if key := funcKey(obj); key != "" {
					c.funcs[key] = fi
				}
				c.decls = append(c.decls, fi)
			}
		}
	}
}

// funcKey canonicalises a function or concrete method to a string that
// is stable across per-package type-check runs. Interface methods (no
// concrete receiver) yield "".
func funcKey(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		n, isNamed := t.(*types.Named)
		if !isNamed || n.Obj().Pkg() == nil {
			return ""
		}
		return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
	}
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path() + "." + f.Name()
}

// FuncFor resolves a callee object to its declaration in the corpus,
// or nil for out-of-module (or dynamic) callees.
func (c *Corpus) FuncFor(f *types.Func) *FuncInfo {
	if f == nil {
		return nil
	}
	key := funcKey(f)
	if key == "" {
		return nil
	}
	return c.funcs[key]
}

// inModule reports whether the object belongs to one of the analyzed
// module packages (as opposed to the standard library).
func (c *Corpus) inModule(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && c.modulePaths[obj.Pkg().Path()]
}

// lineWaiver reports whether the line holding pos carries the named
// directive.
func (c *Corpus) lineWaiver(pos token.Pos, dir string) bool {
	p := c.Fset.Position(pos)
	dirs, ok := c.lineDirs[lineKey{p.Filename, p.Line}]
	if !ok {
		return false
	}
	_, ok = dirs[dir]
	return ok
}

// ── Shared AST/type helpers ────────────────────────────────────────────

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// callee resolves the static callee of a call, or nil for dynamic
// calls (interface methods resolve to their *types.Func — callers that
// care distinguish via isInterfaceCall).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified call
		}
	}
	return nil
}

// isInterfaceCall reports whether the call dispatches through an
// interface method table.
func isInterfaceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	return types.IsInterface(t)
}

// isConversion reports whether the "call" is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the builtin's name when the call invokes one
// ("make", "append", ...), else "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// stdObjCall reports whether the call's static callee is the method or
// function pkgPath.name (receiver type name checked when recvName is
// non-empty).
func stdObjCall(info *types.Info, call *ast.CallExpr, pkgPath, recvName, name string) bool {
	f := callee(info, call)
	if f == nil || f.Name() != name || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	if recvName == "" {
		return true
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == recvName
}

// lockMethods are the sync primitives whose acquisition the lockfree
// contract bans.
var lockMethods = map[string]map[string]bool{
	"Mutex":     {"Lock": true, "TryLock": true, "Unlock": true},
	"RWMutex":   {"Lock": true, "TryLock": true, "Unlock": true, "RLock": true, "TryRLock": true, "RUnlock": true},
	"WaitGroup": {"Wait": true},
	"Cond":      {"Wait": true},
	"Once":      {"Do": true},
}

// isLockCall reports whether the call acquires (or manipulates) a sync
// lock primitive.
func isLockCall(info *types.Info, call *ast.CallExpr) bool {
	f := callee(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	names, ok := lockMethods[n.Obj().Name()]
	return ok && names[f.Name()]
}

// rootIdent walks selector/index/star/paren chains to the base
// identifier, or nil when the expression is not rooted in one (calls,
// literals, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// recvName returns the declared receiver identifier of a method, or
// "" for functions and anonymous receivers.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 || len(d.Recv.List[0].Names) == 0 {
		return ""
	}
	return d.Recv.List[0].Names[0].Name
}
