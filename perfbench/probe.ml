(* In-process half of the benchmark; perfbench/run.py drives it.

     probe gen    --workload W --seed N --out DIR [--library-file F] [--requests N]
     probe ref    --plan P --ops O [--library-file F]
     probe replay --plan P --ops O --spans FILE [--library-file F]
     probe des

   [gen] writes every input the program sees, derived from the seed
   alone: DIR/plan.json, the serve request pool as BLIF text, and a small
   warm-up netlist. The serve pool holds [--requests] requests, rounded up
   to whole blocks. [ref] recomputes the operations listed in O in
   process for the output checks. [replay] runs the same operations one
   layer call at a time, in the product's flow order, with a span of its
   own around each call; the spans stay in memory and are written to FILE
   at exit. [des] measures the estimator alone on des at 640 K patterns:
   heap growth and the 1- vs 2-domain speedup. Every command prints one
   JSON object as its last line of standard output. *)

module J = Runtime.Checkpoint
module E = Techmap.Estimate
module G = Cell.Genlib
module Prng = Logic.Prng

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("probe: " ^ s);
      exit 2)
    fmt

let ok = function
  | Ok v -> v
  | Error e -> fail "%s" (Runtime.Cnt_error.to_string e)

let num f = J.Num f
let int n = J.Num (float_of_int n)
let mem j k = ok (J.field j k)
let as_int j = int_of_float (ok (J.as_num "int" j))
let as_str j = ok (J.as_str "string" j)
let as_list j = ok (J.as_arr "array" j)
let read_json path = ok (J.json_of_string (ok (J.read_file path)))

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let print_json j = print_endline (J.json_to_string_compact j)
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                      *)

let table1_circuits = [ "des"; "C6288" ]
let table1_patterns = E.default_patterns
let campaign_circuits = [ "C1355"; "C1908"; "C5315"; "i8"; "t481"; "C2670" ]
let campaign_seeds = 2
let campaign_patterns = 65_536
let serve_patterns = 4096
let serve_strata = 20

(* Every estimate the product runs for Table 1 and serve uses the default
   estimation seed; only the campaign sweeps seeds. *)
let est_seed = 42L

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let strs l = J.Arr (List.map (fun s -> J.Str s) l)
let builtin_names = List.map (fun (l : G.t) -> l.G.name) G.all_libraries

(* Requests come in blocks of [serve_strata]: within a block every
   netlist falls in a different size stratum of 50..600 gates and a
   different XOR-fraction stratum of 0..0.3, and each family serves the
   same number of requests. Any prefix of whole blocks therefore has the
   same mix of sizes, XOR fractions and families for every seed; the seed
   moves sizes and fractions within their strata, the netlists' structure,
   the pairing and the order. Every request carries a distinct netlist. *)
let gen_serve rng ~out ~libraries ~requests =
  Sys.mkdir (Filename.concat out "pool") 0o755;
  let nlib = List.length libraries in
  let strata = Float.of_int serve_strata in
  let perm () =
    let a = Array.init serve_strata Fun.id in
    shuffle rng a;
    a
  in
  let pool = ref [] and draws = ref [] in
  for b = 0 to ((requests + serve_strata - 1) / serve_strata) - 1 do
    let size = perm () and xor = perm () and family = perm () in
    for j = 0 to serve_strata - 1 do
      let k = (b * serve_strata) + j in
      let gates =
        50 + int_of_float ((Float.of_int size.(j) +. Prng.float rng) *. 550.0 /. strata)
      in
      let xor_fraction = 0.3 *. (Float.of_int xor.(j) +. Prng.float rng) /. strata in
      let inputs = max 8 (min 48 (gates / 8)) in
      let outputs = max 4 (min 32 (gates / 16)) in
      let seed = Prng.next64 rng in
      let name = Printf.sprintf "r%03d" k in
      let nl =
        Circuits.Randlogic.generate ~inputs ~gates ~outputs ~xor_fraction ~seed ()
      in
      let file = Filename.concat "pool" (name ^ ".blif") in
      write_file (Filename.concat out file) (Nets.Blif.write_string ~model:name nl);
      pool :=
        J.Obj
          [
            ("name", J.Str name);
            ("file", J.Str file);
            ("gates", int gates);
            ("inputs", int inputs);
            ("outputs", int outputs);
            ("xor_fraction", num xor_fraction);
          ]
        :: !pool;
      draws := J.Arr [ int k; int (family.(j) mod nlib) ] :: !draws
    done
  done;
  [
    ("pool", J.Arr (List.rev !pool));
    ("draws", J.Arr (List.rev !draws));
    ("patterns", int serve_patterns);
  ]

let gen ~workload ~seed ~out ~libfile ~requests =
  if seed < 0 then fail "--seed must be >= 0";
  let rng = Prng.create (Int64.of_int seed) in
  let ptl () =
    match libfile with
    | Some f -> (ok (Cell.Libfile.load_file f)).G.name
    | None -> fail "%s needs --library-file" workload
  in
  let fields, libraries =
    match workload with
    | "table1-640k" ->
        ( [ ("circuits", strs table1_circuits); ("patterns", int table1_patterns) ],
          builtin_names )
    | "serve-mixed" ->
        let libraries = builtin_names @ [ ptl () ] in
        let requests =
          match Option.map int_of_string_opt requests with
          | Some (Some n) when n > 0 -> n
          | _ -> fail "serve-mixed needs --requests N, N > 0"
        in
        (gen_serve rng ~out ~libraries ~requests, libraries)
    | "campaign-65k" ->
        let circuits = Array.of_list campaign_circuits in
        shuffle rng circuits;
        ( [
            ("circuits", strs (Array.to_list circuits));
            ("seed", int (Prng.int rng 100_000));
            ("seeds", int campaign_seeds);
            ("patterns", int campaign_patterns);
          ],
          builtin_names @ [ ptl () ] )
    | w -> fail "unknown workload %S" w
  in
  let warmup = Circuits.Randlogic.generate ~inputs:6 ~gates:16 ~outputs:3 ~seed:1L () in
  write_file (Filename.concat out "warmup.blif")
    (Nets.Blif.write_string ~model:"warmup" warmup);
  let plan =
    J.Obj
      ([
         ("workload", J.Str workload);
         ("seed", int seed);
         ("libraries", strs libraries);
         ("warmup", J.Str "warmup.blif");
       ]
      @ fields)
  in
  write_file (Filename.concat out "plan.json") (J.json_to_string plan);
  print_json (J.Obj [ ("plan", J.Str (Filename.concat out "plan.json")) ])

(* ------------------------------------------------------------------ *)
(* Spans: one per layer call, kept in memory, written at exit           *)

type span = { id : int; parent : int; op : string; name : string; t0 : float; t1 : float }

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : (int * string) list ref = ref []

let span ?op name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match !open_spans with (p, o) :: _ -> (p, o) | [] -> (-1, "")
    in
    let op = Option.value op ~default:inherited in
    open_spans := (id, op) :: !open_spans;
    let t0 = now () in
    let close () =
      open_spans := List.tl !open_spans;
      spans := { id; parent; op; name; t0; t1 = now () } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (J.json_to_string_compact
               (J.Obj
                  [
                    ("id", int s.id);
                    ("parent", int s.parent);
                    ("op", J.Str s.op);
                    ("name", J.Str s.name);
                    ("start", num s.t0);
                    ("end", num s.t1);
                  ]));
          output_char oc '\n')
        (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* The product flow, one layer call at a time                           *)

let ands_out = ref 0
let cells = ref 0
let cell_patterns = ref 0.0

type source = Text of string | Suite of Circuits.Suite.entry

let synth source =
  let nl =
    match source with
    | Text t -> span "nets.parse" (fun () -> ok (Nets.Blif.parse_string t))
    | Suite e -> span "circuits.generate" e.Circuits.Suite.generate
  in
  let (_ : Nets.Check.report) = span "nets.check" (fun () -> ok (Nets.Check.check nl)) in
  let aig = span "aigs.of_netlist" (fun () -> Aigs.Aig.of_netlist nl) in
  let opt = span "aigs.resyn2rs" (fun () -> Aigs.Opt.resyn2rs aig) in
  ands_out := !ands_out + Aigs.Aig.num_ands opt;
  (nl, opt)

let matchlib lib = span "techmap.matchlib" (fun () -> Techmap.Matchlib.build lib)

(* [verify] follows Exp_table1: the serve and campaign paths do not
   co-simulate the mapped netlist. *)
let map_estimate ?domains ~verify ~patterns ~seed ml (nl, opt) =
  let mapped = span "techmap.map" (fun () -> ok (Techmap.Mapper.map_checked ml opt)) in
  let n = Array.length mapped.Techmap.Mapped.cells in
  cells := !cells + n;
  cell_patterns := !cell_patterns +. (float_of_int n *. float_of_int patterns);
  if
    verify
    && not
         (span "techmap.verify" (fun () ->
              Techmap.Mapped.check mapped nl ~patterns:512 ~seed:99L))
  then fail "mapped netlist is not equivalent to its source";
  span "techmap.estimate" (fun () -> E.run ?domains ~patterns ~seed mapped)

let report_json (r : E.report) =
  J.Obj
    [
      ("gates", int r.E.gates);
      ("area", num r.E.area);
      ("delay_s", num r.E.delay);
      ("dynamic_W", num r.E.dynamic);
      ("static_W", num r.E.static);
      ("gate_leak_W", num r.E.gate_leak);
      ("total_W", num r.E.total);
      ("edp_Js", num r.E.edp);
    ]

let library name =
  match G.find_library name with
  | Some l -> l
  | None -> fail "unknown library %S" name

let suite name =
  match
    List.find_opt
      (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name = name)
      Circuits.Suite.all
  with
  | Some e -> e
  | None -> fail "unknown circuit %S" name

let split_key key = String.split_on_char '/' key

(* A serve op is "<pool name>/<library>"; the pool file sits next to the
   plan. *)
let pool_text ~dir plan name =
  let entry =
    List.find (fun p -> as_str (mem p "name") = name) (as_list (mem plan "pool"))
  in
  ok (J.read_file (Filename.concat dir (as_str (mem entry "file"))))

(* Runs [ops] of the plan's workload. With [reference], the in-process
   results the output checks compare against: serve requests go through
   [Estimate.run_blif], and each campaign circuit is synthesized once and
   mapped once per family. Otherwise every op repeats the product's
   per-op flow one layer call at a time. Returns the results keyed like
   the product's outputs and each op's wall time. *)
let run_ops ~dir ~plan ~ops ~reference =
  let results = ref [] and walls = ref [] in
  let add key r = results := (key, report_json r) :: !results in
  let timed key f =
    let t0 = now () in
    span ~op:key ("op." ^ as_str (mem plan "workload")) f;
    walls := (key, num (now () -. t0)) :: !walls
  in
  (match as_str (mem plan "workload") with
  | "table1-640k" ->
      let libs = List.map (fun n -> library (as_str n)) (as_list (mem plan "libraries")) in
      let mls =
        List.map (fun l -> (l, span ~op:"table1" "techmap.matchlib" (fun () ->
            Techmap.Matchlib.build l))) libs
      in
      List.iter
        (fun circuit ->
          timed circuit (fun () ->
              let s = synth (Suite (suite circuit)) in
              List.iter
                (fun ((l : G.t), ml) ->
                  add (circuit ^ "/" ^ l.G.name)
                    (map_estimate ~verify:true ~patterns:table1_patterns ~seed:est_seed ml s))
                mls))
        ops
  | "serve-mixed" ->
      let patterns = as_int (mem plan "patterns") in
      List.iter
        (fun key ->
          match split_key key with
          | [ name; lib ] ->
              let text = pool_text ~dir plan name in
              let lib = library lib in
              timed key (fun () ->
                  if reference then
                    add key (ok (E.run_blif ~domains:1 ~patterns ~seed:est_seed ~lib text))
                  else
                    add key
                      (map_estimate ~domains:1 ~verify:false ~patterns ~seed:est_seed
                         (matchlib lib) (synth (Text text))))
          | _ -> fail "bad serve op %S" key)
        ops
  | "campaign-65k" ->
      let patterns = as_int (mem plan "patterns") in
      let parse key =
        match split_key key with
        | [ c; l; s ] -> (c, l, Int64.of_string s)
        | _ -> fail "bad shard id %S" key
      in
      let shards = List.map (fun k -> (k, parse k)) ops in
      if reference then
        List.iter
          (fun c ->
            let mine = List.filter (fun (_, (c', _, _)) -> c' = c) shards in
            timed c (fun () ->
                let nl = (suite c).Circuits.Suite.generate () in
                let (_ : Nets.Check.report) = Nets.Check.check_exn nl in
                let opt = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
                List.iter
                  (fun l ->
                    let ml = Techmap.Matchlib.build (library l) in
                    let mapped = ok (Techmap.Mapper.map_checked ml opt) in
                    List.iter
                      (fun (k, (_, l', seed)) ->
                        if l' = l then add k (E.run ~domains:1 ~patterns ~seed mapped))
                      mine)
                  (List.sort_uniq compare (List.map (fun (_, (_, l, _)) -> l) mine))))
          (List.sort_uniq compare (List.map (fun (_, (c, _, _)) -> c) shards))
      else
        List.iter
          (fun (key, (c, l, seed)) ->
            timed key (fun () ->
                let s = synth (Suite (suite c)) in
                add key
                  (map_estimate ~domains:1 ~verify:false ~patterns ~seed
                     (matchlib (library l)) s)))
          shards
  | w -> fail "unknown workload %S" w);
  (J.Obj (List.rev !results), J.Obj (List.rev !walls))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced replay                                 *)

let rec find_spans name (s : Runtime.Telemetry.span) =
  let here = if s.Runtime.Telemetry.span_name = name then s.Runtime.Telemetry.total_s else 0.0 in
  List.fold_left (fun acc c -> acc +. find_spans name c) here s.Runtime.Telemetry.children

let telemetry_total prof name =
  List.fold_left (fun acc s -> acc +. find_spans name s) 0.0 prof.Runtime.Telemetry.p_spans

(* Calls, total and self time per span name. A span's self time is its
   duration minus what its child spans cover; child calls are
   sequential, so their durations add up. *)
let layer_totals () =
  let dur s = s.t1 -. s.t0 in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 +. dur s))
    !spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let calls, total, selfs =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (calls + 1, total +. dur s, selfs +. self))
    !spans;
  tbl

(* Supervisor.spawn_async plus the reap, with a trivial job. Must run
   before any domain is spawned: OCaml 5 cannot fork after that. *)
let fork_roundtrip_ms () =
  let sample () =
    let t0 = now () in
    let w = Runtime.Supervisor.spawn_async ~name:"perfbench" (fun () -> 1) in
    let rec wait () =
      match Runtime.Supervisor.async_step w with
      | `Pending ->
          ignore (Unix.select [ Runtime.Supervisor.async_fd w ] [] [] 1.0);
          wait ()
      | `Done (Ok 1) -> ()
      | `Done _ -> fail "fork round trip failed"
    in
    wait ();
    1e3 *. (now () -. t0)
  in
  let xs = Array.init 21 (fun _ -> sample ()) in
  Array.sort compare xs;
  xs.(Array.length xs / 2)

let matchlib_probe libs =
  List.fold_left
    (fun (cold, warm, entries) lib ->
      let t0 = now () in
      let ml = Techmap.Matchlib.build ~cache:false lib in
      let t1 = now () in
      ignore (Techmap.Matchlib.build lib);
      let t2 = now () in
      ignore (Techmap.Matchlib.build lib);
      let t3 = now () in
      (cold +. (t1 -. t0), warm +. (t3 -. t2), entries + Techmap.Matchlib.size ml))
    (0.0, 0.0, 0) libs

let replay ~dir ~plan ~ops ~spans_path ~libfile_s =
  let fork_ms = fork_roundtrip_ms () in
  let module T = Runtime.Telemetry in
  tracing := true;
  T.set_enabled true;
  T.reset ();
  let t0 = now () in
  let results, walls = run_ops ~dir ~plan ~ops ~reference:false in
  let wall = now () -. t0 in
  let prof = T.snapshot () in
  T.set_enabled false;
  tracing := false;
  let leak = Power.Leakage.cache_stats () in
  let libs = List.map (fun n -> library (as_str n)) (as_list (mem plan "libraries")) in
  let cold, warm, entries = matchlib_probe libs in
  let tbl = layer_totals () in
  let calls name = match Hashtbl.find_opt tbl name with Some (c, _, _) -> c | None -> 0 in
  let total name = match Hashtbl.find_opt tbl name with Some (_, t, _) -> t | None -> 0.0 in
  let layers =
    Hashtbl.fold
      (fun name (calls, total, self) acc ->
        J.Obj
          [
            ("name", J.Str name);
            ("calls", int calls);
            ("total_s", num total);
            ("self_s", num self);
          ]
        :: acc)
      tbl []
  in
  let est = total "techmap.estimate" in
  let sim = telemetry_total prof "estimate.simulate" in
  let char = telemetry_total prof "estimate.characterize" in
  write_spans spans_path;
  print_json
    (J.Obj
       [
         ("results", results);
         ("op_wall_s", walls);
         ("wall_s", num wall);
         ("layers", J.Arr layers);
         ( "metrics",
           J.Obj
             [
               ("nets.parse_s", num (total "nets.parse"));
               ("nets.check_s", num (total "nets.check"));
               ("aigs.resyn2rs_s", num (total "aigs.resyn2rs"));
               ("aigs.resyn2rs_calls", int (calls "aigs.resyn2rs"));
               ("aigs.ands_out", int !ands_out);
               ("cell.libfile_load_s", num libfile_s);
               ("techmap.matchlib_cold_s", num cold);
               ("techmap.matchlib_warm_s", num warm);
               ("techmap.matchlib_entries", int entries);
               ("techmap.map_s", num (total "techmap.map"));
               ("techmap.cells", int !cells);
               ("techmap.verify_s", num (total "techmap.verify"));
               ("techmap.estimate_s", num est);
               ("techmap.estimate.simulate_s", num sim);
               ("techmap.estimate.characterize_s", num char);
               ("techmap.estimate.other_s", num (est -. sim -. char));
               ( "techmap.sim_cell_patterns_per_s",
                 num (if sim > 0.0 then !cell_patterns /. sim else 0.0) );
               ("power.leakage_dc_solves", int leak.Power.Leakage.misses);
               ("power.leakage_hit_ratio", num (Power.Leakage.hit_ratio leak));
               ("runtime.fork_roundtrip_ms", num fork_ms);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* The estimator alone on des at 640 K patterns                         *)

let des () =
  let e = suite "des" in
  let nl = e.Circuits.Suite.generate () in
  let opt = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
  let mapped = Techmap.Mapper.map (Techmap.Matchlib.build G.generalized_cntfet) opt in
  Gc.full_major ();
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  let before = top () in
  let t0 = now () in
  let r2 = E.run ~domains:2 mapped in
  let t2 = now () -. t0 in
  let growth = top () - before in
  let t0 = now () in
  let r1 = E.run ~domains:1 mapped in
  let t1 = now () -. t0 in
  if r1 <> r2 then fail "Estimate.run differs between 1 and 2 domains";
  print_json
    (J.Obj
       [
         ( "techmap.estimate_heap_mb",
           num (float_of_int (growth * (Sys.word_size / 8)) /. 1048576.0) );
         ("techmap.sim_parallel_speedup", num (t1 /. t2));
       ])

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail "unexpected argument %S" a
  in
  match args with
  | [] -> fail "usage: probe (gen|ref|replay|des) [--key value]..."
  | cmd :: rest -> (
      let o = opts [] rest in
      let need k = match List.assoc_opt k o with Some v -> v | None -> fail "%s needs --%s" cmd k in
      let libfile = List.assoc_opt "library-file" o in
      (* Registering the data-file family is part of what the CLI does on
         --library-file; its parse time is the cell layer's metric. *)
      let load_libfile () =
        match libfile with
        | None -> 0.0
        | Some f ->
            let t0 = now () in
            let lib = ok (Cell.Libfile.load_file f) in
            let dt = now () -. t0 in
            ignore (Cell.Libfile.register lib);
            dt
      in
      let plan_and_ops () =
        let plan_path = need "plan" in
        let ops = List.map as_str (as_list (read_json (need "ops"))) in
        (Filename.dirname plan_path, read_json plan_path, ops)
      in
      match cmd with
      | "gen" ->
          let seed =
            match int_of_string_opt (need "seed") with
            | Some s -> s
            | None -> fail "--seed must be an integer"
          in
          gen ~workload:(need "workload") ~seed ~out:(need "out") ~libfile
            ~requests:(List.assoc_opt "requests" o)
      | "ref" ->
          ignore (load_libfile ());
          let dir, plan, ops = plan_and_ops () in
          let results, walls = run_ops ~dir ~plan ~ops ~reference:true in
          print_json (J.Obj [ ("results", results); ("op_wall_s", walls) ])
      | "replay" ->
          let libfile_s = load_libfile () in
          let dir, plan, ops = plan_and_ops () in
          replay ~dir ~plan ~ops ~spans_path:(need "spans") ~libfile_s
      | "des" -> des ()
      | c -> fail "unknown command %S" c)
