module obladi/benchmark

go 1.24

require obladi v0.0.0

replace obladi => ../
