package main

import (
	"flag"
	"fmt"

	"example.com/mod/shapes"
)

var unit = shapes.Unit()

func main() {
	flag.Parse()
	var s shapes.Shape = shapes.Square{Side: 2}
	fmt.Println(s.Area(), unit, shapes.Describe(s))
}
