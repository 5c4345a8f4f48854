// Package fixture exercises strindex's marker audit.  dispatch carries
// an attached //sentinel:hotpath marker and its lookup is checked;
// resolve's marker is separated from it by a var declaration, so it
// marks nothing — the marker itself is the finding, and resolve stays
// cold.
package fixture

var byName map[string]int

var sink int

//sentinel:hotpath
func dispatch(name string) {
	sink = byName[name] // want `strindex: string-keyed map index \(map\[string\]int\) in hot-path function dispatch`
}

//sentinel:hotpath // want `strindex: //sentinel:hotpath is not in a function's doc comment`
var resolved int

func resolve(name string) {
	resolved = byName[name]
}
