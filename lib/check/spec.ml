module Graph = Rtr_graph.Graph
module Json = Rtr_obs.Json
module Point = Rtr_geom.Point

type failure =
  | Disc of { cx : float; cy : float; r : float }
  | Explicit of { nodes : int list; links : (int * int) list }

type episode =
  | Cascade of { at : float; failure : failure }
  | Flap of { at : float; up_at : float; links : (int * int) list }
  | Move of { at : float; cx : float; cy : float; r : float }

type t = {
  name : string;
  n : int;
  coords : (float * float) array;
  edges : (int * int * int * int) list;
  failure : failure;
  episodes : episode list;
}

let equal a b =
  a.name = b.name && a.n = b.n && a.coords = b.coords && a.edges = b.edges
  && a.failure = b.failure && a.episodes = b.episodes

(* Keep every float on a 0.01 grid: such values need at most 6-7
   significant digits, which the JSON printer's %.12g reproduces
   exactly, so serialise/parse is the identity. *)
let grid x = Float.round (x *. 100.) /. 100.

let area_of = function
  | Disc { cx; cy; r } ->
      Some (Rtr_failure.Area.disc ~center:(Point.make cx cy) ~radius:r)
  | Explicit _ -> None

let materialise_failure topo failure =
  let g = Rtr_topo.Topology.graph topo in
  match failure with
  | Disc _ -> Rtr_failure.Damage.apply topo (Option.get (area_of failure))
  | Explicit { nodes; links } ->
      let links =
        List.filter_map (fun (u, v) -> Graph.find_link g u v) links
      in
      Rtr_failure.Damage.of_failed g ~nodes ~links

let build spec =
  let g = Graph.build_weighted ~n:spec.n ~edges:spec.edges in
  let pts = Array.map (fun (x, y) -> Point.make x y) spec.coords in
  let topo =
    Rtr_topo.Topology.create ~name:spec.name g
      (Rtr_topo.Embedding.of_points pts)
  in
  (topo, materialise_failure topo spec.failure)

(* The ground-truth damage as a function of time: the base failure at
   t = 0, then one epoch per episode event.  Events at equal times
   apply in episode order; events that change nothing (a cascade disc
   over empty plane, a flap of an already-dead link) produce no epoch.
   A [Flap] with [up_at <= at] is degenerate and ignored. *)
let timeline spec =
  let topo, base = build spec in
  let g = Rtr_topo.Topology.graph topo in
  let events =
    List.concat_map
      (function
        | Cascade { at; failure } -> [ (at, `Add failure) ]
        | Flap { at; up_at; links } ->
            if up_at <= at then []
            else [ (at, `Down links); (up_at, `Up links) ]
        | Move { at; cx; cy; r } -> [ (at, `Replace (cx, cy, r)) ])
      spec.episodes
    |> List.stable_sort (fun (ta, _) (tb, _) -> Float.compare ta tb)
  in
  let link_ids links =
    List.filter_map (fun (u, v) -> Graph.find_link g u v) links
  in
  let epochs =
    List.fold_left
      (fun acc (at, event) ->
        let current = snd (List.hd acc) in
        let next =
          match event with
          | `Add failure ->
              Rtr_failure.Damage.merge current (materialise_failure topo failure)
          | `Down links ->
              Rtr_failure.Damage.merge current
                (Rtr_failure.Damage.of_failed g ~nodes:[] ~links:(link_ids links))
          | `Up links ->
              Rtr_failure.Damage.restore current ~links:(link_ids links) ()
          | `Replace (cx, cy, r) ->
              Rtr_failure.Damage.apply topo
                (Rtr_failure.Area.disc ~center:(Point.make cx cy) ~radius:r)
        in
        if Rtr_failure.Damage.equal next current then acc
        else (at, next) :: acc)
      [ (0., base) ] events
  in
  (topo, List.rev epochs)

let generate rng ~name =
  let module Rng = Rtr_util.Rng in
  let attempt () =
    let n = 6 + Rng.int rng 19 in
    (* Distinct grid coordinates, so link directions stay well
       defined. *)
    let seen = Hashtbl.create 32 in
    let coords =
      Array.init n (fun _ ->
          let rec draw tries =
            let x = grid (Rng.float rng 2000.)
            and y = grid (Rng.float rng 2000.) in
            if Hashtbl.mem seen (x, y) && tries < 100 then draw (tries + 1)
            else begin
              Hashtbl.replace seen (x, y) ();
              (x, y)
            end
          in
          draw 0)
    in
    (* Spanning tree plus extra links, like Gen.random_connected_graph,
       but with the edge list kept explicit for shrinking. *)
    let linked = Hashtbl.create 64 in
    let edges = ref [] in
    let add u v =
      if u <> v && not (Hashtbl.mem linked (min u v, max u v)) then begin
        Hashtbl.replace linked (min u v, max u v) ();
        edges := (u, v, 1 + Rng.int rng 10, 1 + Rng.int rng 10) :: !edges
      end
    in
    for v = 1 to n - 1 do
      add (Rng.int rng v) v
    done;
    let extra = Rng.int rng (n + 1) in
    let attempts = ref 0 in
    let added = ref 0 in
    while !added < extra && !attempts < 100 * extra do
      incr attempts;
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v && not (Hashtbl.mem linked (min u v, max u v)) then begin
        add u v;
        incr added
      end
    done;
    let failure =
      Disc
        {
          cx = grid (Rng.float rng 2000.);
          cy = grid (Rng.float rng 2000.);
          r = grid (100. +. Rng.float rng 200.);
        }
    in
    { name; n; coords; edges = List.rev !edges; failure; episodes = [] }
  in
  (* Re-draw until the failure actually triggers recovery somewhere;
     a damage-free spec exercises nothing. *)
  let rec search tries =
    let spec = attempt () in
    let topo, damage = build spec in
    if Gen.detectors topo damage <> [] || tries >= 20 then spec
    else search (tries + 1)
  in
  search 0

let generate_episodes rng ~kind ~name =
  let module Rng = Rtr_util.Rng in
  let random_disc ?near () =
    let cx, cy =
      match near with
      | Some (x, y) ->
          (grid (x +. Rng.float_range rng (-300.) 300.),
           grid (y +. Rng.float_range rng (-300.) 300.))
      | None -> (grid (Rng.float rng 2000.), grid (Rng.float rng 2000.))
    in
    (cx, cy, grid (100. +. Rng.float rng 150.))
  in
  let episodes_for spec =
    let topo, base = build spec in
    match kind with
    | `Cascading ->
        List.init
          (1 + Rng.int rng 2)
          (fun _ ->
            let at = grid (0.05 +. Rng.float rng 0.45) in
            let failure =
              let alive = Gen.alive_link_endpoints topo base in
              if Rng.bool rng || alive = [] then
                let cx, cy, r = random_disc () in
                Disc { cx; cy; r }
              else
                (* a burst of explicit link failures among survivors,
                   so the shrink merge move has something to merge *)
                let pool = Array.of_list alive in
                Explicit
                  {
                    nodes = [];
                    links =
                      List.init
                        (1 + Rng.int rng (min 3 (Array.length pool)))
                        (fun _ -> Rng.pick rng pool);
                  }
            in
            Cascade { at; failure })
    | `Transient ->
        (* Prefer repairing part of the base failure itself: links
           coming back before convergence completes is the Barreto
           transient model; add an independent flap half the time. *)
        let repairs =
          match Gen.restorable_failed_links topo base with
          | [] -> []
          | restorable ->
              let pool = Array.of_list restorable in
              [
                Flap
                  {
                    at = 0.;
                    up_at = grid (0.1 +. Rng.float rng 0.6);
                    links =
                      List.init
                        (1 + Rng.int rng (min 2 (Array.length pool)))
                        (fun _ -> Rng.pick rng pool);
                  };
              ]
        in
        let flaps =
          match Gen.alive_link_endpoints topo base with
          | [] -> []
          | _ when repairs <> [] && Rng.bool rng -> []
          | alive ->
              let at = grid (0.05 +. Rng.float rng 0.3) in
              [
                Flap
                  {
                    at;
                    up_at = grid (at +. 0.1 +. Rng.float rng 0.5);
                    links = [ Rng.pick rng (Array.of_list alive) ];
                  };
              ]
        in
        repairs @ flaps
    | `Moving ->
        (* The disc tracks a path across the plane: each episode
           re-samples the whole failure at the disc's next position. *)
        let start =
          match spec.failure with
          | Disc { cx; cy; _ } -> (cx, cy)
          | Explicit _ -> (grid 1000., grid 1000.)
        in
        let rec steps k t pos acc =
          if k = 0 then List.rev acc
          else
            let at = grid (t +. 0.05 +. Rng.float rng 0.3) in
            let cx, cy, r = random_disc ~near:pos () in
            steps (k - 1) at (cx, cy) (Move { at; cx; cy; r } :: acc)
        in
        steps (2 + Rng.int rng 2) 0. start []
  in
  (* Re-draw until the timeline actually moves: at least one episode
     event must change the ground-truth damage. *)
  let rec search tries =
    let base = generate rng ~name in
    let spec = { base with episodes = episodes_for base } in
    if List.length (snd (timeline spec)) >= 2 || tries >= 20 then spec
    else search (tries + 1)
  in
  search 0

(* --- shrinking moves ------------------------------------------------ *)

let drop_link spec i =
  if List.length spec.edges <= 1 || i < 0 || i >= List.length spec.edges then
    None
  else
    Some
      { spec with edges = List.filteri (fun j _ -> j <> i) spec.edges }

let drop_node spec v =
  if spec.n <= 2 || v < 0 || v >= spec.n then None
  else
    let remap u = if u > v then u - 1 else u in
    let remap_links ls =
      List.filter_map
        (fun (a, b) ->
          if a = v || b = v then None else Some (remap a, remap b))
        ls
    in
    let remap_failure = function
      | Disc _ as d -> d
      | Explicit { nodes; links } ->
          Explicit
            {
              nodes =
                List.filter_map
                  (fun u -> if u = v then None else Some (remap u))
                  nodes;
              links = remap_links links;
            }
    in
    let edges =
      List.filter_map
        (fun (a, b, cab, cba) ->
          if a = v || b = v then None
          else Some (remap a, remap b, cab, cba))
        spec.edges
    in
    if edges = [] then None
    else
      let coords =
        Array.init (spec.n - 1) (fun i ->
            spec.coords.(if i >= v then i + 1 else i))
      in
      let episodes =
        List.map
          (function
            | Cascade { at; failure } ->
                Cascade { at; failure = remap_failure failure }
            | Flap { at; up_at; links } ->
                Flap { at; up_at; links = remap_links links }
            | Move _ as m -> m)
          spec.episodes
      in
      Some
        {
          spec with
          n = spec.n - 1;
          coords;
          edges;
          failure = remap_failure spec.failure;
          episodes;
        }

let halve_radius spec =
  match spec.failure with
  | Explicit _ -> None
  | Disc { cx; cy; r } ->
      if r <= 1.0 then None
      else Some { spec with failure = Disc { cx; cy; r = grid (r /. 2.) } }

let drop_episode spec i =
  if i < 0 || i >= List.length spec.episodes then None
  else
    Some
      { spec with episodes = List.filteri (fun j _ -> j <> i) spec.episodes }

let shorten_timer spec i =
  match List.nth_opt spec.episodes i with
  | None -> None
  | Some ep ->
      let shorter =
        match ep with
        | Flap { at; up_at; links } ->
            (* Halve the repair timer; floor one grid step. *)
            let d = up_at -. at in
            if d <= 0.02 then None
            else Some (Flap { at; up_at = grid (at +. (d /. 2.)); links })
        | Cascade { at; failure } ->
            if at <= 0.02 then None
            else Some (Cascade { at = grid (at /. 2.); failure })
        | Move { at; cx; cy; r } ->
            if at <= 0.02 then None
            else Some (Move { at = grid (at /. 2.); cx; cy; r })
      in
      Option.map
        (fun ep' ->
          {
            spec with
            episodes = List.mapi (fun j e -> if j = i then ep' else e) spec.episodes;
          })
        shorter

(* Merge episode [i] with [i+1] when the pair collapses naturally: two
   explicit cascades union their areas, two flaps union their windows
   and links, two moves drop the intermediate disc sample. *)
let merge_episodes spec i =
  match (List.nth_opt spec.episodes i, List.nth_opt spec.episodes (i + 1)) with
  | ( Some (Cascade { at = a1; failure = Explicit e1 }),
      Some (Cascade { at = a2; failure = Explicit e2 }) ) ->
      let merged =
        Cascade
          {
            at = Float.min a1 a2;
            failure =
              Explicit
                {
                  nodes = List.sort_uniq compare (e1.nodes @ e2.nodes);
                  links = List.sort_uniq compare (e1.links @ e2.links);
                };
          }
      in
      Some merged
  | Some (Flap f1), Some (Flap f2) ->
      Some
        (Flap
           {
             at = Float.min f1.at f2.at;
             up_at = Float.max f1.up_at f2.up_at;
             links = List.sort_uniq compare (f1.links @ f2.links);
           })
  | Some (Move m1), Some (Move m2) ->
      (* Keep the later position, reached at the earlier time: the
         intermediate sample of the disc's path disappears. *)
      Some (Move { m2 with at = m1.at })
  | _ -> None

let merge_episodes spec i =
  match merge_episodes spec i with
  | None -> None
  | Some merged ->
      Some
        {
          spec with
          episodes =
            List.filteri (fun j _ -> j <> i + 1) spec.episodes
            |> List.mapi (fun j e -> if j = i then merged else e);
        }

(* --- JSON ----------------------------------------------------------- *)

let failure_to_json = function
  | Disc { cx; cy; r } ->
      Json.Obj
        [
          ("kind", Json.String "disc");
          ("cx", Json.Float cx);
          ("cy", Json.Float cy);
          ("r", Json.Float r);
        ]
  | Explicit { nodes; links } ->
      Json.Obj
        [
          ("kind", Json.String "explicit");
          ("nodes", Json.Arr (List.map (fun v -> Json.Int v) nodes));
          ( "links",
            Json.Arr
              (List.map
                 (fun (u, v) -> Json.Arr [ Json.Int u; Json.Int v ])
                 links) );
        ]

let links_to_json links =
  Json.Arr
    (List.map (fun (u, v) -> Json.Arr [ Json.Int u; Json.Int v ]) links)

let episode_to_json = function
  | Cascade { at; failure } ->
      Json.Obj
        [
          ("kind", Json.String "cascade");
          ("at", Json.Float at);
          ("failure", failure_to_json failure);
        ]
  | Flap { at; up_at; links } ->
      Json.Obj
        [
          ("kind", Json.String "flap");
          ("at", Json.Float at);
          ("up_at", Json.Float up_at);
          ("links", links_to_json links);
        ]
  | Move { at; cx; cy; r } ->
      Json.Obj
        [
          ("kind", Json.String "move");
          ("at", Json.Float at);
          ("cx", Json.Float cx);
          ("cy", Json.Float cy);
          ("r", Json.Float r);
        ]

let to_json spec =
  Json.Obj
    ([
       ("name", Json.String spec.name);
       ("n", Json.Int spec.n);
       ( "coords",
         Json.Arr
           (Array.to_list spec.coords
           |> List.map (fun (x, y) -> Json.Arr [ Json.Float x; Json.Float y ]))
       );
       ( "edges",
         Json.Arr
           (List.map
              (fun (u, v, cuv, cvu) ->
                Json.Arr [ Json.Int u; Json.Int v; Json.Int cuv; Json.Int cvu ])
              spec.edges) );
       ("failure", failure_to_json spec.failure);
     ]
    (* Static specs keep their pre-episode rendering byte for byte:
       the field only appears when a timeline is present. *)
    @
    match spec.episodes with
    | [] -> []
    | eps -> [ ("episodes", Json.Arr (List.map episode_to_json eps)) ])

(* The parser may hand back [Int] where we wrote a whole-valued
   [Float]. *)
let as_float = function
  | Json.Float x -> Some x
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let as_int = function Json.Int i -> Some i | _ -> None

let ( let* ) = Result.bind

let req what = function Some x -> Ok x | None -> Error ("bad " ^ what)

let all_opt f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with
      | Some y, Some ys -> Some (y :: ys)
      | _ -> None)
    xs (Some [])

let failure_of_json j =
  match Json.member "kind" j with
  | Some (Json.String "disc") ->
      let* cx = req "failure.cx" (Option.bind (Json.member "cx" j) as_float) in
      let* cy = req "failure.cy" (Option.bind (Json.member "cy" j) as_float) in
      let* r = req "failure.r" (Option.bind (Json.member "r" j) as_float) in
      Ok (Disc { cx; cy; r })
  | Some (Json.String "explicit") ->
      let* nodes =
        req "failure.nodes"
          (match Json.member "nodes" j with
          | Some (Json.Arr xs) -> all_opt as_int xs
          | _ -> None)
      in
      let* links =
        req "failure.links"
          (match Json.member "links" j with
          | Some (Json.Arr xs) ->
              all_opt
                (function
                  | Json.Arr [ Json.Int u; Json.Int v ] -> Some (u, v)
                  | _ -> None)
                xs
          | _ -> None)
      in
      Ok (Explicit { nodes; links })
  | _ -> Error "bad failure.kind"

let links_of_json what j =
  req what
    (match j with
    | Some (Json.Arr xs) ->
        all_opt
          (function
            | Json.Arr [ Json.Int u; Json.Int v ] -> Some (u, v)
            | _ -> None)
          xs
    | _ -> None)

let episode_of_json j =
  let fl what = req what (Option.bind (Json.member what j) as_float) in
  match Json.member "kind" j with
  | Some (Json.String "cascade") ->
      let* at = fl "at" in
      let* failure =
        match Json.member "failure" j with
        | Some f -> failure_of_json f
        | None -> Error "missing episode failure"
      in
      Ok (Cascade { at; failure })
  | Some (Json.String "flap") ->
      let* at = fl "at" in
      let* up_at = fl "up_at" in
      let* links = links_of_json "episode.links" (Json.member "links" j) in
      Ok (Flap { at; up_at; links })
  | Some (Json.String "move") ->
      let* at = fl "at" in
      let* cx = fl "cx" in
      let* cy = fl "cy" in
      let* r = fl "r" in
      Ok (Move { at; cx; cy; r })
  | _ -> Error "bad episode.kind"

let of_json j =
  let* name =
    req "name"
      (match Json.member "name" j with
      | Some (Json.String s) -> Some s
      | _ -> None)
  in
  let* n = req "n" (Option.bind (Json.member "n" j) as_int) in
  let* coords =
    req "coords"
      (match Json.member "coords" j with
      | Some (Json.Arr xs) ->
          all_opt
            (function
              | Json.Arr [ x; y ] -> (
                  match (as_float x, as_float y) with
                  | Some x, Some y -> Some (x, y)
                  | _ -> None)
              | _ -> None)
            xs
      | _ -> None)
  in
  let* edges =
    req "edges"
      (match Json.member "edges" j with
      | Some (Json.Arr xs) ->
          all_opt
            (function
              | Json.Arr [ Json.Int u; Json.Int v; Json.Int a; Json.Int b ] ->
                  Some (u, v, a, b)
              | _ -> None)
            xs
      | _ -> None)
  in
  let* failure =
    match Json.member "failure" j with
    | Some f -> failure_of_json f
    | None -> Error "missing failure"
  in
  (* Absent in every pre-episode artifact: those must keep decoding
     unchanged, as the static single-episode scenario. *)
  let* episodes =
    match Json.member "episodes" j with
    | None -> Ok []
    | Some (Json.Arr xs) ->
        List.fold_right
          (fun x acc ->
            let* acc = acc in
            let* e = episode_of_json x in
            Ok (e :: acc))
          xs (Ok [])
    | Some _ -> Error "bad episodes"
  in
  (* Reject every spec [build] would raise on: node ids outside
     [0, n) wherever the spec names a router, and the graphs
     [Graph.build_weighted] refuses (self loops, duplicate edges,
     nonpositive costs). *)
  let pair_ok (u, v) = u >= 0 && u < n && v >= 0 && v < n in
  let failure_ok = function
    | Disc _ -> true
    | Explicit { nodes; links } ->
        List.for_all (fun v -> v >= 0 && v < n) nodes
        && List.for_all pair_ok links
  in
  let episode_ok = function
    | Cascade { failure; _ } -> failure_ok failure
    | Flap { links; _ } -> List.for_all pair_ok links
    | Move _ -> true
  in
  if n <= 0 then Error "n must be positive"
  else if List.length coords <> n then Error "coords length differs from n"
  else if not (List.for_all (fun (u, v, _, _) -> pair_ok (u, v)) edges) then
    Error "edge endpoint out of range"
  else if not (failure_ok failure && List.for_all episode_ok episodes) then
    Error "failure names a node out of range"
  else
    match Graph.build_weighted ~n ~edges with
    | exception Invalid_argument msg -> Error msg
    | _ -> Ok { name; n; coords = Array.of_list coords; edges; failure; episodes }
