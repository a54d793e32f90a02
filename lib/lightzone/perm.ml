type t = int

let read = 1
let write = 2
let exec = 4
let user = 8

let pgt_all = -1

let has flags f = flags land f <> 0
