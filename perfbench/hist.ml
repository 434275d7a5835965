(* Log-linear latency histogram over integer nanoseconds: 128
   sub-buckets per power of two (under 1% relative error), so millions
   of per-call samples cost a fixed 64 KiB. *)

let sub_bits = 7
let sub = 1 lsl sub_bits

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make (64 * sub) 0; n = 0 }

let index v =
  let v = max v 1 in
  let rec msb x b = if x > 1 then msb (x lsr 1) (b + 1) else b in
  let e = msb v 0 in
  if e < sub_bits then v
  else
    let shift = e - sub_bits in
    ((shift + 1) * sub) + ((v lsr shift) - sub)

(* Midpoint of a bucket, in ns. *)
let value i =
  if i < sub then float_of_int i
  else
    let shift = (i / sub) - 1 in
    let base = (sub + (i mod sub)) lsl shift in
    float_of_int base +. (float_of_int ((1 lsl shift) - 1) /. 2.)

let add t ns =
  let i = index ns in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let quantile t p =
  if t.n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
    let rank = max 1 rank in
    let acc = ref 0 and i = ref 0 in
    while !acc + t.counts.(!i) < rank do
      acc := !acc + t.counts.(!i);
      incr i
    done;
    value !i
  end
