(* Log-scale histogram bucketing, DDSketch-style: bucket [i] covers
   (gamma^(i-bucket_shift-1), gamma^(i-bucket_shift)]; a value is
   represented by the bucket's geometric midpoint, bounding relative
   error by (gamma-1)/2.

   [bucket_shift] keys the whole sub-second range on non-negative
   indices: raw log-bucketing sends any v < 1 to a negative index
   (the pool's worker busy/idle seconds landed on keys like -62),
   which snapshot consumers reasonably treat as corrupt.  Shifting by
   ceil(-log 1e-9 / log gamma) = 424 keeps every value down to one
   nanosecond positive; anything smaller clamps into bucket 0, whose
   reported midpoint is then a floor, not an estimate. *)
let gamma = 1.05
let log_gamma = log gamma
let bucket_shift = int_of_float (Float.ceil (-.log 1e-9 /. log_gamma))

let bucket_of v =
  max 0 (bucket_shift + int_of_float (Float.ceil (log v /. log_gamma)))

let bucket_value i =
  (gamma ** float_of_int (i - bucket_shift)) *. (2.0 /. (1.0 +. gamma))

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_zero : int;
  h_buckets : (int, int ref) Hashtbl.t;
}

let fresh_hist () =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_zero = 0;
    h_buckets = Hashtbl.create 16;
  }

type kind = K_counter | K_gauge | K_hist

type cell = M_counter of int ref | M_gauge of float ref | M_hist of hist

let fresh_cell = function
  | K_counter -> M_counter (ref 0)
  | K_gauge -> M_gauge (ref 0.0)
  | K_hist -> M_hist (fresh_hist ())

(* A registry holds metric *definitions* (name -> slot/kind, guarded by
   [lock]) plus one store of cells per domain (via [Domain.DLS]).  A
   handle created on any domain updates the calling domain's own cell,
   so hot-path updates never contend and per-domain totals can be
   [snapshot]ted independently and folded back with [absorb] — the
   mechanism the parallel scenario runner's deterministic merge rides
   on.  Handles are shared freely across domains; cells are not. *)
type registry = {
  lock : Mutex.t;
  slots : (string, int * kind) Hashtbl.t;
  mutable defs : (string * kind) array;  (* slot -> (name, kind) *)
  mutable n_slots : int;
  cells_key : cell option array ref Domain.DLS.key;
}

let create () =
  {
    lock = Mutex.create ();
    slots = Hashtbl.create 64;
    defs = Array.make 64 ("", K_counter);
    n_slots = 0;
    cells_key = Domain.DLS.new_key (fun () -> ref [||]);
  }

let default = create ()

type handle = { reg : registry; slot : int; kind : kind }

(* The calling domain's cell for [h], created on first touch.  The only
   lock taken is a brief one when the local store must learn the
   registry's current capacity; the update itself is domain-local. *)
let cell h =
  let store = Domain.DLS.get h.reg.cells_key in
  let arr = !store in
  if h.slot < Array.length arr then
    match arr.(h.slot) with
    | Some c -> c
    | None ->
        let c = fresh_cell h.kind in
        arr.(h.slot) <- Some c;
        c
  else begin
    let cap =
      Mutex.protect h.reg.lock (fun () -> Array.length h.reg.defs)
    in
    let grown = Array.make (max cap (h.slot + 1)) None in
    Array.blit arr 0 grown 0 (Array.length arr);
    store := grown;
    let c = fresh_cell h.kind in
    grown.(h.slot) <- Some c;
    c
  end

module Counter = struct
  type t = handle

  let cell_of t =
    match cell t with M_counter r -> r | _ -> assert false

  let incr t = Stdlib.incr (cell_of t)

  let add t n =
    let r = cell_of t in
    r := !r + n

  let value t = !(cell_of t)
end

module Gauge = struct
  type t = handle

  let cell_of t = match cell t with M_gauge r -> r | _ -> assert false
  let set t v = cell_of t := v

  let set_max t v =
    let r = cell_of t in
    if v > !r then r := v

  let value t = !(cell_of t)
end

module Histogram = struct
  type t = handle

  let cell_of t = match cell t with M_hist h -> h | _ -> assert false

  let observe t v =
    let t = cell_of t in
    t.h_count <- t.h_count + 1;
    t.h_sum <- t.h_sum +. v;
    if v < t.h_min then t.h_min <- v;
    if v > t.h_max then t.h_max <- v;
    if v <= 0.0 then t.h_zero <- t.h_zero + 1
    else
      let i = bucket_of v in
      match Hashtbl.find_opt t.h_buckets i with
      | Some r -> incr r
      | None -> Hashtbl.replace t.h_buckets i (ref 1)

  let count t = (cell_of t).h_count
  let sum t = (cell_of t).h_sum

  (* Shared with Snapshot.quantile: walk buckets in index order until
     the cumulative count reaches the target rank. *)
  let quantile_of ~count ~zero ~min_v ~max_v buckets q =
    if count = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = Float.max 1.0 (Float.ceil (q *. float_of_int count)) in
      let sorted = List.sort compare buckets in
      let estimate =
        if float_of_int zero >= target then 0.0
        else
          let rec walk cum = function
            | [] -> max_v
            | (i, n) :: rest ->
                let cum = cum + n in
                if float_of_int cum >= target then bucket_value i
                else walk cum rest
          in
          walk zero sorted
      in
      Float.max min_v (Float.min max_v estimate)
    end

  let quantile t q =
    let t = cell_of t in
    let buckets =
      Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.h_buckets []
    in
    quantile_of ~count:t.h_count ~zero:t.h_zero ~min_v:t.h_min ~max_v:t.h_max
      buckets q
end

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_hist -> "histogram"

let register ?(registry = default) name kind =
  let h =
    Mutex.protect registry.lock (fun () ->
        match Hashtbl.find_opt registry.slots name with
        | Some (slot, k) ->
            if k <> kind then
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as a %s" name
                   (kind_name k));
            { reg = registry; slot; kind }
        | None ->
            let slot = registry.n_slots in
            if slot >= Array.length registry.defs then begin
              let grown =
                Array.make (2 * Array.length registry.defs) ("", K_counter)
              in
              Array.blit registry.defs 0 grown 0 slot;
              registry.defs <- grown
            end;
            registry.defs.(slot) <- (name, kind);
            registry.n_slots <- slot + 1;
            Hashtbl.replace registry.slots name (slot, kind);
            { reg = registry; slot; kind })
  in
  (* Materialise the cell in the registering domain so never-updated
     metrics still show up (at zero) in that domain's snapshots. *)
  ignore (cell h);
  h

let counter ?registry name = register ?registry name K_counter
let gauge ?registry name = register ?registry name K_gauge
let histogram ?registry name = register ?registry name K_hist

let reset ?(registry = default) () =
  let arr = !(Domain.DLS.get registry.cells_key) in
  Array.iter
    (function
      | None -> ()
      | Some (M_counter r) -> r := 0
      | Some (M_gauge r) -> r := 0.0
      | Some (M_hist h) ->
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- Float.infinity;
          h.h_max <- Float.neg_infinity;
          h.h_zero <- 0;
          Hashtbl.reset h.h_buckets)
    arr

(* --- snapshots ------------------------------------------------------ *)

module Snapshot = struct
  type entry =
    | S_counter of int
    | S_gauge of float
    | S_hist of {
        count : int;
        sum : float;
        min_v : float;
        max_v : float;
        zero : int;
        buckets : (int * int) list;  (* sorted by bucket index *)
      }

  type t = (string * entry) list  (* sorted by name *)

  let empty = []

  let merge_buckets a b =
    let rec go a b =
      match (a, b) with
      | [], r | r, [] -> r
      | (i, n) :: ra, (j, m) :: rb ->
          if i < j then (i, n) :: go ra b
          else if j < i then (j, m) :: go a rb
          else (i, n + m) :: go ra rb
    in
    go a b

  let merge_entry name a b =
    match (a, b) with
    | S_counter x, S_counter y -> S_counter (x + y)
    | S_gauge x, S_gauge y -> S_gauge (Float.max x y)
    | S_hist x, S_hist y ->
        S_hist
          {
            count = x.count + y.count;
            sum = x.sum +. y.sum;
            min_v = Float.min x.min_v y.min_v;
            max_v = Float.max x.max_v y.max_v;
            zero = x.zero + y.zero;
            buckets = merge_buckets x.buckets y.buckets;
          }
    | _ ->
        invalid_arg
          (Printf.sprintf "Snapshot.merge: %S has mismatched kinds" name)

  let merge a b =
    let rec go a b =
      match (a, b) with
      | [], r | r, [] -> r
      | (ka, va) :: ra, (kb, vb) :: rb ->
          let c = String.compare ka kb in
          if c < 0 then (ka, va) :: go ra b
          else if c > 0 then (kb, vb) :: go a rb
          else (ka, merge_entry ka va vb) :: go ra rb
    in
    go a b

  let counter t name =
    match List.assoc_opt name t with
    | Some (S_counter n) -> Some n
    | _ -> None

  let quantile t name q =
    match List.assoc_opt name t with
    | Some (S_hist h) when h.count > 0 ->
        Some
          (Histogram.quantile_of ~count:h.count ~zero:h.zero ~min_v:h.min_v
             ~max_v:h.max_v h.buckets q)
    | _ -> None

  let hist_json (h : entry) =
    match h with
    | S_hist { count; sum; min_v; max_v; zero; buckets } ->
        let quantile q =
          Histogram.quantile_of ~count ~zero ~min_v ~max_v buckets q
        in
        Json.Obj
          [
            ("count", Json.Int count);
            ("sum", Json.Float sum);
            ("min", if count = 0 then Json.Null else Json.Float min_v);
            ("max", if count = 0 then Json.Null else Json.Float max_v);
            ("p50", if count = 0 then Json.Null else Json.Float (quantile 0.5));
            ("p90", if count = 0 then Json.Null else Json.Float (quantile 0.9));
            ("p99", if count = 0 then Json.Null else Json.Float (quantile 0.99));
            ("zero", Json.Int zero);
            ( "buckets",
              Json.Arr
                (List.map
                   (fun (i, n) -> Json.Arr [ Json.Int i; Json.Int n ])
                   buckets) );
          ]
    | _ -> assert false

  let to_json t =
    let pick f = List.filter_map f t in
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (pick (function
              | name, S_counter n -> Some (name, Json.Int n)
              | _ -> None)) );
        ( "gauges",
          Json.Obj
            (pick (function
              | name, S_gauge g -> Some (name, Json.Float g)
              | _ -> None)) );
        ( "histograms",
          Json.Obj
            (pick (function
              | name, (S_hist _ as h) -> Some (name, hist_json h)
              | _ -> None)) );
      ]
end

let snapshot ?(registry = default) () : Snapshot.t =
  let defs =
    Mutex.protect registry.lock (fun () ->
        Array.sub registry.defs 0 registry.n_slots)
  in
  let arr = !(Domain.DLS.get registry.cells_key) in
  let entries = ref [] in
  Array.iteri
    (fun slot (name, _) ->
      if slot < Array.length arr then
        match arr.(slot) with
        | None -> ()
        | Some cell ->
            let entry =
              match cell with
              | M_counter r -> Snapshot.S_counter !r
              | M_gauge r -> Snapshot.S_gauge !r
              | M_hist h ->
                  Snapshot.S_hist
                    {
                      count = h.h_count;
                      sum = h.h_sum;
                      min_v = h.h_min;
                      max_v = h.h_max;
                      zero = h.h_zero;
                      buckets =
                        Hashtbl.fold
                          (fun i r acc -> (i, !r) :: acc)
                          h.h_buckets []
                        |> List.sort compare;
                    }
            in
            entries := (name, entry) :: !entries)
    defs;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !entries

let absorb ?(registry = default) (snap : Snapshot.t) =
  List.iter
    (fun (name, entry) ->
      match entry with
      | Snapshot.S_counter n -> Counter.add (counter ~registry name) n
      | Snapshot.S_gauge v -> Gauge.set_max (gauge ~registry name) v
      | Snapshot.S_hist { count; sum; min_v; max_v; zero; buckets } ->
          let h = Histogram.cell_of (histogram ~registry name) in
          h.h_count <- h.h_count + count;
          h.h_sum <- h.h_sum +. sum;
          if min_v < h.h_min then h.h_min <- min_v;
          if max_v > h.h_max then h.h_max <- max_v;
          h.h_zero <- h.h_zero + zero;
          List.iter
            (fun (i, n) ->
              match Hashtbl.find_opt h.h_buckets i with
              | Some r -> r := !r + n
              | None -> Hashtbl.replace h.h_buckets i (ref n))
            buckets)
    snap

let write_file ?manifest path snap =
  let doc =
    Json.Obj
      ((match manifest with
       | Some m -> [ ("manifest", m) ]
       | None -> [])
      @ [ ("metrics", Snapshot.to_json snap) ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
