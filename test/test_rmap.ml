module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Path = Rtr_graph.Path
module Damage = Rtr_failure.Damage
module PE = Rtr_topo.Paper_example
module Signature = Rtr_rmap.Signature
module Enum = Rtr_rmap.Enum
module Store = Rtr_rmap.Store
module Compile = Rtr_rmap.Compile
module Service = Rtr_rmap.Service
module Json = Rtr_obs.Json
module Topo_cache = Rtr_routing.Topo_cache

let topo = PE.topology ()
let g = Rtr_topo.Topology.graph topo
let n_links = Graph.n_links g
let table = Rtr_routing.Route_table.compute (View.full g)

(* One singles-only compile shared by the store/service tests. *)
let compiled =
  lazy (Compile.run topo { Enum.default with Enum.explicit = [ [ 0; 1 ] ] })

let store () =
  match Store.of_string (Lazy.force compiled).Compile.artifact with
  | Ok s -> s
  | Error e -> Alcotest.failf "artifact rejected: %s" e

(* --- signatures ----------------------------------------------------- *)

let test_signature_canonical () =
  let s = Signature.of_links ~n_links [ 3; 1; 7 ] in
  Alcotest.(check string) "order irrelevant"
    (s :> string)
    (Signature.of_links ~n_links [ 7; 3; 1 ] :> string);
  Alcotest.(check string) "duplicates collapse"
    (s :> string)
    (Signature.of_links ~n_links [ 1; 1; 3; 7; 7 ] :> string);
  Alcotest.(check (list int)) "to_links ascending" [ 1; 3; 7 ]
    (Signature.to_links s);
  Alcotest.(check int) "card" 3 (Signature.card s);
  Alcotest.(check string) "empty is empty" ""
    (Signature.of_links ~n_links [] :> string);
  Alcotest.check_raises "out of range"
    (Invalid_argument
       (Printf.sprintf "Signature.of_links: link %d outside 0..%d" n_links
          (n_links - 1)))
    (fun () -> ignore (Signature.of_links ~n_links [ n_links ]))

let test_signature_of_damage () =
  (* A geographic failure and the explicit list of the same links must
     collide on one key — the map's whole premise. *)
  let damage =
    Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())
  in
  let from_damage = Signature.of_damage g damage in
  let from_links =
    Signature.of_links ~n_links (Damage.failed_links damage)
  in
  Alcotest.(check string) "damage = explicit links"
    (from_damage :> string)
    (from_links :> string);
  (* The failed router is represented by its incident links. *)
  List.iter
    (fun l ->
      let u, v = Graph.endpoints g l in
      if u = PE.failed_router || v = PE.failed_router then
        Alcotest.(check bool)
          (Printf.sprintf "incident link %d present" l)
          true
          (List.mem l (Signature.to_links from_damage)))
    (List.init n_links Fun.id)

let test_signature_validate () =
  let s = Signature.of_links ~n_links [ 0; 5 ] in
  (match Signature.of_string ~n_links (s :> string) with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (Signature.equal s s')
  | Error e -> Alcotest.failf "valid bytes rejected: %s" e);
  (match Signature.of_string ~n_links ((s :> string) ^ "\000") with
  | Ok _ -> Alcotest.fail "trailing zero byte accepted"
  | Error _ -> ());
  let high = String.make ((n_links / 8) + 1) '\255' in
  match Signature.of_string ~n_links high with
  | Ok _ -> Alcotest.fail "bits past n_links accepted"
  | Error _ -> ()

let qcheck_signature_permutation =
  QCheck.Test.make ~name:"signature is permutation- and duplicate-invariant"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 12) (int_bound (n_links - 1)))
    (fun links ->
      let s = Signature.of_links ~n_links links in
      let rev = Signature.of_links ~n_links (List.rev links) in
      let dup = Signature.of_links ~n_links (links @ links) in
      let sorted =
        Signature.of_links ~n_links (List.sort_uniq compare links)
      in
      Signature.equal s rev && Signature.equal s dup && Signature.equal s sorted
      && Signature.to_links s = List.sort_uniq compare links)

(* --- enumeration ---------------------------------------------------- *)

let test_enum_singles_and_dedup () =
  let scenarios, stats =
    Enum.enumerate topo
      { Enum.default with Enum.explicit = [ [ 0; 1 ]; [ 1; 0 ]; [ 2 ] ] }
  in
  (* [1;0] collapses onto [0;1]; [2] collapses onto its single. *)
  Alcotest.(check int) "kept" (n_links + 1) (List.length scenarios);
  Alcotest.(check int) "deduped" 2 stats.Enum.deduped;
  Alcotest.(check int) "dropped" 0 stats.Enum.dropped;
  (* Deterministic: same call, same list. *)
  let again, _ = Enum.enumerate topo
      { Enum.default with Enum.explicit = [ [ 0; 1 ]; [ 1; 0 ]; [ 2 ] ] }
  in
  Alcotest.(check bool) "deterministic" true
    (List.for_all2
       (fun (a : Enum.scenario) (b : Enum.scenario) ->
         Signature.equal a.Enum.signature b.Enum.signature)
       scenarios again)

let test_enum_combo_budget () =
  let scenarios, stats =
    Enum.enumerate topo
      { Enum.default with Enum.singles = false; Enum.combo_k = 2;
        Enum.combo_budget = 3 }
  in
  Alcotest.(check int) "kept at most the budget" 3 (List.length scenarios);
  Alcotest.(check bool) "drops are counted, not silent" true
    (stats.Enum.dropped > 0)

let test_enum_empty_disc () =
  let _, stats =
    Enum.enumerate topo
      { Enum.default with Enum.singles = false; Enum.grid_cols = 1;
        Enum.grid_rows = 1; Enum.radii = [ 10.0 ]; Enum.width = 1e9;
        Enum.height = 1e9 }
  in
  Alcotest.(check int) "far-away disc fails nothing" 1 stats.Enum.empty;
  Alcotest.(check int) "and is skipped" 0 stats.Enum.kept

(* --- store ---------------------------------------------------------- *)

let test_artifact_roundtrip () =
  let result = Lazy.force compiled in
  let store = store () in
  Alcotest.(check string) "topology name" (Rtr_topo.Topology.name topo)
    (Store.topo_name store);
  Alcotest.(check int) "n_nodes" (Graph.n_nodes g) (Store.n_nodes store);
  Alcotest.(check int) "n_links" n_links (Store.n_links store);
  Alcotest.(check int) "n_scenarios" result.Compile.n_scenarios
    (Store.n_scenarios store);
  Alcotest.(check int) "n_cases" result.Compile.n_cases (Store.n_cases store);
  (* Every slot's signature finds itself, and its cases re-evaluate to
     exactly the stored records. *)
  Store.iter_slots store (fun slot ->
      let signature = Store.signature store slot in
      Alcotest.(check int) "find_slot finds itself" slot
        (Store.find_slot store signature);
      let fresh =
        Compile.eval_links topo table (Signature.to_links signature)
      in
      let first, count = Store.case_range store slot in
      Alcotest.(check int) "case count" (Array.length fresh) count;
      Array.iteri
        (fun i c ->
          let stored = Store.to_case store (first + i) in
          if stored <> c then
            Alcotest.failf "slot %d case %d differs from re-evaluation" slot i)
        fresh)

let test_store_file_roundtrip () =
  let result = Lazy.force compiled in
  let path = Filename.temp_file "rmap" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc result.Compile.artifact;
      close_out oc;
      match Store.load path with
      | Error e -> Alcotest.failf "load rejected: %s" e
      | Ok store ->
          Alcotest.(check int) "same case count" result.Compile.n_cases
            (Store.n_cases store))

let expect_reject what bytes =
  match Store.of_string bytes with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error _ -> ()

let test_store_rejects_corruption () =
  let artifact = (Lazy.force compiled).Compile.artifact in
  let flip pos byte =
    let b = Bytes.of_string artifact in
    Bytes.set b pos byte;
    Bytes.to_string b
  in
  expect_reject "bad magic" (flip 0 'X');
  expect_reject "truncated artifact"
    (String.sub artifact 0 (String.length artifact - 4));
  expect_reject "short header" (String.sub artifact 0 16);
  expect_reject "empty" "";
  (* Swap the first two index entries: the index is no longer sorted. *)
  let name_len =
    Int32.to_int (String.get_int32_le artifact 32)
  in
  let index_off = 40 + ((name_len + 3) / 4 * 4) in
  let b = Bytes.of_string artifact in
  let e0 = Bytes.sub b index_off 16 in
  Bytes.blit b (index_off + 16) b index_off 16;
  Bytes.blit e0 0 b (index_off + 16) 16;
  expect_reject "unsorted index" (Bytes.to_string b);
  (* An out-of-range node id in the path pool. *)
  let path_pool_len = Int32.to_int (String.get_int32_le artifact 28) in
  Alcotest.(check bool) "artifact stores some route" true (path_pool_len > 0);
  let b = Bytes.of_string artifact in
  Bytes.set_int32_le b (String.length artifact - 4) 0x7fffffffl;
  expect_reject "out-of-range path node" (Bytes.to_string b)

let test_store_case_index_probes () =
  let store = store () in
  Store.iter_slots store (fun slot ->
      let first, count = Store.case_range store slot in
      for i = first to first + count - 1 do
        let probe =
          Store.case_index store ~slot
            ~initiator:(Store.case_initiator store i)
            ~trigger:(Store.case_trigger store i)
            ~dst:(Store.case_dst store i)
        in
        Alcotest.(check int) "probe lands on the case" i probe
      done);
  (* A wrong trigger must miss even when (initiator, dst) is a case. *)
  let slot = 0 in
  let first, count = Store.case_range store slot in
  if count > 0 then begin
    let initiator = Store.case_initiator store first in
    let trigger = Store.case_trigger store first in
    let dst = Store.case_dst store first in
    let wrong = (trigger + 1) mod Store.n_nodes store in
    if wrong <> trigger then
      Alcotest.(check int) "wrong trigger misses" (-1)
        (Store.case_index store ~slot ~initiator ~trigger:wrong ~dst)
  end

(* Random canonical signatures built to stress the word-at-a-time
   probe: long zero runs, shared prefixes, lengths off the 8-byte grid
   and equal prefixes of different lengths.  Each comes with a flag
   saying whether the artifact stores it. *)
let gen_probe_sigs =
  let open QCheck.Gen in
  let nonzero = map Char.chr (int_range 1 255) in
  let byte = frequency [ (3, return '\000'); (1, nonzero) ] in
  let raw = string_size ~gen:byte (int_range 0 70) in
  let canonical s =
    let n = ref (min 70 (String.length s)) in
    while !n > 0 && s.[!n - 1] = '\000' do
      decr n
    done;
    String.sub s 0 !n
  in
  let set_byte base k c =
    if base = "" then String.make 1 c
    else
      let k = k mod String.length base in
      String.mapi (fun i b -> if i = k then c else b) base
  in
  let variant base =
    oneof
      [
        return base;
        map (fun k -> String.sub base 0 (min k (String.length base))) (0 -- 70);
        map (fun tail -> base ^ tail) raw;
        map2 (set_byte base) nat nonzero;
      ]
  in
  let family = raw >>= fun base -> list_size (1 -- 6) (variant base) in
  list_size (1 -- 8) family >>= fun families ->
  List.concat families |> List.map canonical
  |> List.sort_uniq String.compare
  |> List.map (fun s -> map (fun stored -> (s, stored)) bool)
  |> flatten_l

let probe_n_links = 70 * 8
let probe_n_nodes = 6

(* An artifact holding the stored signatures, each with a few cases at
   random distinct (initiator, dst) keys. *)
let probe_store rng sigs =
  let n_nodes = probe_n_nodes in
  let entry (s, stored) =
    if not stored then None
    else
      let case k =
        {
          Store.initiator = k / n_nodes;
          trigger = Random.State.int rng n_nodes;
          dst = k mod n_nodes;
          kind = Store.Unreachable;
          cost = -1;
          true_cost = -1;
          path = [||];
        }
      in
      let keys =
        List.filter
          (fun _ -> Random.State.int rng 3 = 0)
          (List.init (n_nodes * n_nodes) Fun.id)
      in
      Some
        ( Result.get_ok (Signature.of_string ~n_links:probe_n_links s),
          Array.of_list (List.map case keys) )
  in
  Store.encode ~topo_name:"probe" ~n_nodes ~n_links:probe_n_links
    (List.filter_map entry sigs)
  |> Store.of_string |> Result.get_ok

let qcheck_probe_order =
  QCheck.Test.make ~name:"index probes equal linear scans" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list (pair (Printf.sprintf "%S") bool))
       gen_probe_sigs)
    (fun sigs ->
      let rng = Random.State.make [| List.length sigs |] in
      let store = probe_store rng sigs in
      let scan_slot q =
        let found = ref (-1) in
        Store.iter_slots store (fun slot ->
            if
              !found < 0
              && String.compare (Store.signature store slot :> string) q = 0
            then found := slot);
        !found
      in
      let scan_case slot ~initiator ~trigger ~dst =
        let first, count = Store.case_range store slot in
        let found = ref (-1) in
        for i = first to first + count - 1 do
          if
            !found < 0
            && Store.case_initiator store i = initiator
            && Store.case_trigger store i = trigger
            && Store.case_dst store i = dst
          then found := i
        done;
        !found
      in
      List.for_all
        (fun (q, _) ->
          let signature =
            Result.get_ok (Signature.of_string ~n_links:probe_n_links q)
          in
          let slot = Store.find_slot store signature in
          slot = scan_slot q
          && (slot < 0
             || List.for_all
                  (fun k ->
                    let n = probe_n_nodes in
                    let initiator = k / (n * n)
                    and trigger = k / n mod n
                    and dst = k mod n in
                    Store.case_index store ~slot ~initiator ~trigger ~dst
                    = scan_case slot ~initiator ~trigger ~dst)
                  (List.init (probe_n_nodes * probe_n_nodes * probe_n_nodes)
                     Fun.id)))
        sigs)

let test_stretch () =
  Alcotest.(check (option (float 1e-9))) "3/2" (Some 1.5)
    (Store.stretch ~cost:3 ~true_cost:2);
  Alcotest.(check (option (float 1e-9))) "optimal" (Some 1.0)
    (Store.stretch ~cost:7 ~true_cost:7);
  Alcotest.(check (option (float 1e-9))) "no emitted cost" None
    (Store.stretch ~cost:(-1) ~true_cost:2);
  Alcotest.(check (option (float 1e-9))) "irrecoverable" None
    (Store.stretch ~cost:3 ~true_cost:(-1));
  Alcotest.(check (option (float 1e-9))) "zero denominator" None
    (Store.stretch ~cost:0 ~true_cost:0)

(* --- compiler ------------------------------------------------------- *)

let test_compile_deterministic_across_jobs () =
  let config = { Enum.default with Enum.explicit = [ [ 0; 1; 2 ] ] } in
  let a = Compile.run ~jobs:1 topo config in
  let b = Compile.run ~jobs:3 topo config in
  Alcotest.(check string) "byte-identical artifacts" a.Compile.artifact
    b.Compile.artifact;
  Alcotest.(check string) "same content hash"
    (Compile.fnv64_hex a.Compile.artifact)
    (Compile.fnv64_hex b.Compile.artifact)

let test_manifest_shape () =
  let m = (Lazy.force compiled).Compile.manifest in
  (match Json.parse (Json.to_string m) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "manifest is not valid JSON: %s" e);
  Alcotest.(check bool) "format tag" true
    (Json.member "format" m = Some (Json.String "rmap-manifest/1"));
  Alcotest.(check bool) "content hash present" true
    (match Json.member "artifact_fnv64" m with
    | Some (Json.String h) -> String.length h = 16
    | _ -> false)

(* --- service -------------------------------------------------------- *)

let test_service_topology_mismatch () =
  let other = Rtr_topo.Isp.load_by_name "AS209" in
  match Service.create ~topo:other (store ()) with
  | Ok _ -> Alcotest.fail "mismatched topology accepted"
  | Error _ -> ()

let service () =
  match Service.create ~topo (store ()) with
  | Ok s -> s
  | Error e -> Alcotest.failf "service rejected: %s" e

let check_reply_matches ~from_artifact (c : Store.case)
    (reply : Service.reply) =
  Alcotest.(check bool) "origin" from_artifact reply.Service.from_artifact;
  Alcotest.(check bool) "kind" true (reply.Service.kind = c.Store.kind);
  Alcotest.(check int) "cost" c.Store.cost reply.Service.cost;
  Alcotest.(check int) "true cost" c.Store.true_cost reply.Service.true_cost;
  Alcotest.(check (array int)) "path" c.Store.path reply.Service.path

let test_service_hit_path () =
  let service = service () in
  (* [0; 1] was compiled in: its first case must come straight from the
     artifact and match a from-scratch evaluation. *)
  let fresh = Compile.eval_links topo table [ 0; 1 ] in
  Alcotest.(check bool) "scenario has cases" true (Array.length fresh > 0);
  let c = fresh.(0) in
  match
    Service.query service ~links:[ 1; 0 ] ~initiator:c.Store.initiator
      ~trigger:c.Store.trigger ~dst:c.Store.dst
  with
  | Error e -> Alcotest.failf "hit query failed: %s" e
  | Ok reply -> check_reply_matches ~from_artifact:true c reply

let test_service_miss_falls_back () =
  let service = service () in
  (* A 3-link set was never compiled (singles plus the one explicit
     pair), so this query must take the reactive fallback — and still
     answer exactly what the compiler would have stored. *)
  let links = [ 0; 1; 2 ] in
  let fresh = Compile.eval_links topo table links in
  Alcotest.(check bool) "scenario has cases" true (Array.length fresh > 0);
  let c = fresh.(0) in
  match
    Service.query service ~links ~initiator:c.Store.initiator
      ~trigger:c.Store.trigger ~dst:c.Store.dst
  with
  | Error e -> Alcotest.failf "miss query failed: %s" e
  | Ok reply -> check_reply_matches ~from_artifact:false c reply

(* Every (initiator, neighbour trigger, dst) triple of random link sets,
   asked of a service whose artifact holds no signature at all: each
   answer comes from the one-case fallback and must be the compiler's
   case, or an [Error] exactly when the compiler has no such case. *)
let test_fallback_parity () =
  let rng = Random.State.make [| 16 |] in
  List.iter
    (fun name ->
      let topo = Rtr_topo.Isp.load_by_name name in
      let g = Rtr_topo.Topology.graph topo in
      let n = Graph.n_nodes g and n_links = Graph.n_links g in
      let table = Topo_cache.table (Topo_cache.shared topo) in
      let empty =
        Store.encode ~topo_name:name ~n_nodes:n ~n_links []
        |> Store.of_string |> Result.get_ok
      in
      let service = Result.get_ok (Service.create ~topo empty) in
      let answered = ref 0 in
      for _ = 1 to 3 do
        let links =
          List.init (2 + Random.State.int rng 12) (fun _ ->
              Random.State.int rng n_links)
        in
        let expected = Hashtbl.create 64 in
        Array.iter
          (fun (c : Store.case) ->
            Hashtbl.replace expected
              (c.Store.initiator, c.Store.trigger, c.Store.dst)
              c)
          (Compile.eval_links topo table links);
        let found = ref 0 in
        for initiator = 0 to n - 1 do
          Array.iter
            (fun (trigger, _) ->
              for dst = 0 to n - 1 do
                match
                  ( Service.query service ~links ~initiator ~trigger ~dst,
                    Hashtbl.find_opt expected (initiator, trigger, dst) )
                with
                | Ok reply, Some c ->
                    incr found;
                    check_reply_matches ~from_artifact:false c reply
                | Error _, None -> ()
                | Ok _, None ->
                    Alcotest.failf "%s: (v%d, v%d) -> v%d answered, no case"
                      name initiator trigger dst
                | Error e, Some _ ->
                    Alcotest.failf "%s: (v%d, v%d) -> v%d: %s" name initiator
                      trigger dst e
              done)
            (Graph.neighbors g initiator)
        done;
        Alcotest.(check int)
          (name ^ ": every compiled case answered")
          (Hashtbl.length expected) !found;
        answered := !answered + !found
      done;
      Alcotest.(check bool) (name ^ ": some cases answered") true
        (!answered > 0))
    [ "AS1239"; "AS3549" ]

let test_service_rejects_bad_queries () =
  let service = service () in
  (match
     Service.query service ~links:[ 0 ] ~initiator:(-1) ~trigger:0 ~dst:1
   with
  | Ok _ -> Alcotest.fail "negative initiator accepted"
  | Error _ -> ());
  match
    Service.query service ~links:[ n_links + 5 ] ~initiator:0 ~trigger:1 ~dst:2
  with
  | Ok _ -> Alcotest.fail "out-of-range link accepted"
  | Error _ -> ()

let test_bench_lookups () =
  let service = service () in
  let a = Service.bench_lookups service ~n:2000 ~seed:11 in
  Alcotest.(check int) "all probes accounted" 2000
    (a.Service.hits + a.Service.misses);
  Alcotest.(check bool) "mostly hits" true (a.Service.hits > 1000);
  Alcotest.(check bool) "some misses" true (a.Service.misses > 0);
  let b = Service.bench_lookups service ~n:2000 ~seed:11 in
  Alcotest.(check int) "deterministic in the seed" a.Service.hits
    b.Service.hits

let suite =
  [
    Alcotest.test_case "signature canonical" `Quick test_signature_canonical;
    Alcotest.test_case "signature of damage" `Quick test_signature_of_damage;
    Alcotest.test_case "signature validation" `Quick test_signature_validate;
    QCheck_alcotest.to_alcotest qcheck_signature_permutation;
    Alcotest.test_case "enum singles + dedup" `Quick
      test_enum_singles_and_dedup;
    Alcotest.test_case "enum combo budget" `Quick test_enum_combo_budget;
    Alcotest.test_case "enum empty disc" `Quick test_enum_empty_disc;
    Alcotest.test_case "artifact round-trip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "artifact file round-trip" `Quick
      test_store_file_roundtrip;
    Alcotest.test_case "corruption rejected" `Quick
      test_store_rejects_corruption;
    Alcotest.test_case "case-index probes" `Quick test_store_case_index_probes;
    QCheck_alcotest.to_alcotest qcheck_probe_order;
    Alcotest.test_case "stretch" `Quick test_stretch;
    Alcotest.test_case "jobs-invariant artifact" `Quick
      test_compile_deterministic_across_jobs;
    Alcotest.test_case "manifest shape" `Quick test_manifest_shape;
    Alcotest.test_case "service topology mismatch" `Quick
      test_service_topology_mismatch;
    Alcotest.test_case "service hit path" `Quick test_service_hit_path;
    Alcotest.test_case "service miss falls back" `Quick
      test_service_miss_falls_back;
    Alcotest.test_case "fallback parity with the compiler" `Quick
      test_fallback_parity;
    Alcotest.test_case "service rejects bad queries" `Quick
      test_service_rejects_bad_queries;
    Alcotest.test_case "bench lookups" `Quick test_bench_lookups;
  ]
