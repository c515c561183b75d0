module opinions/bench

go 1.22

require opinions v0.0.0

replace opinions => ../
