module github.com/gloss/active/bench

go 1.24

require github.com/gloss/active v0.0.0

replace github.com/gloss/active => ../
