module insituviz/bench

go 1.22

require insituviz v0.0.0

replace insituviz => ../
