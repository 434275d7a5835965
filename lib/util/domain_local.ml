type 'a t = 'a Domain.DLS.key

let make init = Domain.DLS.new_key init
let get k = Domain.DLS.get k
