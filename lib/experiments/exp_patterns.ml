module P = Power.Pattern
module L = Power.Leakage

type result = {
  patterns : (P.t * float * float) list;
  nor3_parallel : float;
  nor3_series : float;
  nor3_same_pattern_vectors : (int * int) list;
  total_vectors : int;
  dc_solves : int;
  cache_hits : int;
}

let run () =
  (* This experiment measures solver work (dc_solves is golden-gated), so
     the table starts cold. *)
  L.clear_cache ();
  let census = Power.Characterize.pattern_census_all () in
  let patterns =
    List.map
      (fun p ->
        (p, L.pattern_ioff Spice.Tech.cntfet p, L.pattern_ioff Spice.Tech.cmos p))
      census
  in
  (* Count how many (gate, vector) pairs the classification collapses. *)
  let total_vectors =
    List.fold_left
      (fun acc (c : Cell.Cells.t) ->
        acc + (1 lsl c.Cell.Cells.pins)
        + match c.Cell.Cells.static with Some _ -> 1 lsl c.Cell.Cells.pins | None -> 0)
      0 Cell.Cells.all
  in
  let census_stats = L.cache_stats () in
  (* Re-characterize every (gate, vector) pair through the cache: the
     census above already solved each distinct pattern, so this sweep is
     pure hits — the measured collapse A1 claims. *)
  List.iter
    (fun (c : Cell.Cells.t) ->
      let sweep impl =
        let gp = P.analyze impl ~pins:c.Cell.Cells.pins in
        ignore (L.gate_ioff Spice.Tech.cntfet gp)
      in
      sweep c.Cell.Cells.ambipolar;
      Option.iter sweep c.Cell.Cells.static)
    Cell.Cells.all;
  (* NOR3, Fig. 4: input 000 leaves the three pull-down devices off in
     parallel; input 111 leaves the pull-up stack off in series. *)
  let nor3 = Cell.Cells.find "NOR3" in
  let gp = P.analyze nor3.Cell.Cells.ambipolar ~pins:3 in
  let ioff = L.gate_ioff Spice.Tech.cntfet gp in
  let final_stats = L.cache_stats () in
  let same =
    let pairs = ref [] in
    for v = 0 to 6 do
      for w = v + 1 to 7 do
        if P.equal gp.P.off_pattern.(v) gp.P.off_pattern.(w) then pairs := (v, w) :: !pairs
      done
    done;
    List.rev !pairs
  in
  {
    patterns;
    nor3_parallel = ioff.(0);
    nor3_series = ioff.(7);
    nor3_same_pattern_vectors = same;
    total_vectors;
    dc_solves = census_stats.L.misses;
    cache_hits = final_stats.L.hits;
  }

let print ppf r =
  Report.render ppf
    {
      Report.title =
        Printf.sprintf "E3: I_off pattern census — %d distinct patterns (paper: 26)"
          (List.length r.patterns);
      headers = [| "Pattern"; "Ioff CNTFET (nA)"; "Ioff CMOS (nA)" |];
      rows =
        List.map
          (fun (p, icnt, icmos) ->
            [| Format.asprintf "%a" P.pp p; Report.f3 (icnt *. 1e9); Report.f3 (icmos *. 1e9) |])
          r.patterns;
    };
  Format.fprintf ppf
    "A1: %d gate-vector combinations collapsed into %d DC solves (%.0fx fewer simulations)@."
    r.total_vectors r.dc_solves
    (float_of_int r.total_vectors /. float_of_int (max 1 r.dc_solves));
  Format.fprintf ppf
    "A1: leakage cache: %d hits / %d solves (hit ratio %.1f%%)@." r.cache_hits
    r.dc_solves
    (100.0
    *. float_of_int r.cache_hits
    /. float_of_int (max 1 (r.cache_hits + r.dc_solves)));
  Format.fprintf ppf
    "E8 / Fig. 4 (NOR3): Ioff[000] = %.3g nA (parallel), Ioff[111] = %.3g nA (series): ratio %.1fx (paper: >3x)@."
    (r.nor3_parallel *. 1e9) (r.nor3_series *. 1e9)
    (r.nor3_parallel /. r.nor3_series);
  let pp_pair ppf (v, w) = Format.fprintf ppf "[%d%d%d]=[%d%d%d]" (v land 1) ((v lsr 1) land 1) ((v lsr 2) land 1) (w land 1) ((w lsr 1) land 1) ((w lsr 2) land 1) in
  Format.fprintf ppf "E8: NOR3 input vectors sharing a pattern: %a@."
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_pair)
    r.nor3_same_pattern_vectors

let scalars r =
  [
    ("n_patterns", float_of_int (List.length r.patterns));
    ("nor3_parallel_over_series", r.nor3_parallel /. r.nor3_series);
    ("shared_pattern_pairs", float_of_int (List.length r.nor3_same_pattern_vectors));
    ("total_vectors", float_of_int r.total_vectors);
    ("dc_solves", float_of_int r.dc_solves);
    ("cache_hits", float_of_int r.cache_hits);
  ]
