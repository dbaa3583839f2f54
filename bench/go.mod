module crew/bench

go 1.22.0

require crew v0.0.0

replace crew => ../

replace golang.org/x/tools => ../third_party/golang.org/x/tools
