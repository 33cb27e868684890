type t = { n : int; data : int64 array }

(* Number of storage words for an [n]-variable table. *)
let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Valid-bit mask for the (single) word of a small table. *)
let small_mask n = if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let nvars t = t.n

let const n b =
  assert (n >= 0 && n <= 16);
  let w = if b then small_mask n else 0L in
  { n; data = Array.make (nwords n) w }

(* Canonical word patterns for variables 0..5. *)
let var_pattern =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let var n i =
  assert (i >= 0 && i < n && n <= 16);
  let words = nwords n in
  let data =
    if i < 6 then Array.make words (Int64.logand var_pattern.(i) (small_mask n))
    else
      Array.init words (fun w -> if (w lsr (i - 6)) land 1 = 1 then -1L else 0L)
  in
  { n; data }

let map2 f a b =
  assert (a.n = b.n);
  { n = a.n; data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let logand = map2 Int64.logand
let logor = map2 Int64.logor
let logxor = map2 Int64.logxor

let lognot a =
  let m = small_mask a.n in
  { n = a.n; data = Array.map (fun w -> Int64.logand (Int64.lognot w) m) a.data }

let equal a b = a.n = b.n && a.data = b.data
let compare a b = Stdlib.compare (a.n, a.data) (b.n, b.data)
let hash t = Hashtbl.hash (t.n, t.data)

let eval t m =
  assert (m >= 0 && m < 1 lsl t.n);
  Int64.logand (Int64.shift_right_logical t.data.(m lsr 6) (m land 63)) 1L = 1L

let popcount_word x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let count_ones t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.data

let is_const t =
  if equal t (const t.n false) then Some false
  else if equal t (const t.n true) then Some true
  else None

(* Positive/negative halves of a word with respect to an intra-word
   variable [i < 6]: [lo] keeps the minterms where variable i is 0,
   duplicated into both halves; [hi] the minterms where it is 1. *)
let word_cofactor i b w =
  let shift = 1 lsl i in
  let mask = Int64.logxor var_pattern.(i) (-1L) in
  (* mask selects bits where var i = 0 *)
  if b then begin
    let hi = Int64.logand w var_pattern.(i) in
    Int64.logor hi (Int64.shift_right_logical hi shift)
  end
  else begin
    let lo = Int64.logand w mask in
    Int64.logor lo (Int64.shift_left lo shift)
  end

let cofactor t i b =
  assert (i >= 0 && i < t.n);
  if i < 6 then
    { n = t.n;
      data =
        Array.map (fun w -> Int64.logand (word_cofactor i b w) (small_mask t.n)) t.data }
  else begin
    let stride = 1 lsl (i - 6) in
    let data =
      Array.init (Array.length t.data) (fun w ->
          let base = w land lnot stride in
          t.data.(if b then base lor stride else base))
    in
    { n = t.n; data }
  end

let depends_on t i = not (equal (cofactor t i false) (cofactor t i true))

let support t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if depends_on t i then i :: acc else acc) in
  go (t.n - 1) []

let of_bits n values =
  assert (Array.length values = 1 lsl n);
  let data = Array.make (nwords n) 0L in
  Array.iteri
    (fun m b ->
      if b then data.(m lsr 6) <- Int64.logor data.(m lsr 6) (Int64.shift_left 1L (m land 63)))
    values;
  { n; data }

let rebuild n f = of_bits n (Array.init (1 lsl n) f)

(* Exchange variables [i <> j] (both < 6) within one word: minterms with
   x_i = 1, x_j = 0 trade places with those with x_i = 0, x_j = 1, which
   sit [2^j - 2^i] bits higher (for i < j). *)
let word_swap w i j =
  let i, j = if i < j then (i, j) else (j, i) in
  let d = (1 lsl j) - (1 lsl i) in
  let lo = Int64.logand var_pattern.(i) (Int64.lognot var_pattern.(j)) in
  let hi = Int64.shift_left lo d in
  Int64.logor
    (Int64.logand w (Int64.lognot (Int64.logor lo hi)))
    (Int64.logor
       (Int64.shift_left (Int64.logand w lo) d)
       (Int64.shift_right_logical (Int64.logand w hi) d))

(* Negate variable [i < 6] within one word: swap the halves it selects. *)
let word_flip w i =
  let s = 1 lsl i in
  Int64.logor
    (Int64.shift_right_logical (Int64.logand w var_pattern.(i)) s)
    (Int64.logand (Int64.shift_left w s) var_pattern.(i))

let permute t p =
  assert (Array.length p = t.n);
  if t.n <= 6 then begin
    (* Realize [p] as transpositions: [pos.(v)] is where original variable
       [v] currently sits, [at.(q)] which original variable sits at [q]. *)
    let pos = Array.init t.n Fun.id and at = Array.init t.n Fun.id in
    let w = ref t.data.(0) in
    for v = 0 to t.n - 1 do
      let q = p.(v) and cur = pos.(v) in
      if q <> cur then begin
        w := word_swap !w cur q;
        let u = at.(q) in
        at.(cur) <- u;
        pos.(u) <- cur;
        at.(q) <- v;
        pos.(v) <- q
      end
    done;
    { n = t.n; data = [| !w |] }
  end
  else begin
    let remap m =
      let m' = ref 0 in
      for i = 0 to t.n - 1 do
        if (m lsr p.(i)) land 1 = 1 then m' := !m' lor (1 lsl i)
      done;
      !m'
    in
    rebuild t.n (fun m -> eval t (remap m))
  end

let flip_input t i =
  assert (i >= 0 && i < t.n);
  if i < 6 then { n = t.n; data = Array.map (fun w -> word_flip w i) t.data }
  else begin
    let stride = 1 lsl (i - 6) in
    { n = t.n; data = Array.init (Array.length t.data) (fun w -> t.data.(w lxor stride)) }
  end

let shrink t =
  let sup = Array.of_list (support t) in
  let k = Array.length sup in
  rebuild k (fun m ->
      let m' = ref 0 in
      Array.iteri (fun j v -> if (m lsr j) land 1 = 1 then m' := !m' lor (1 lsl v)) sup;
      (* Variables outside the support do not matter; leave them 0. *)
      eval t !m')

let expand t n =
  assert (n >= t.n && n <= 16);
  rebuild n (fun m -> eval t (m land ((1 lsl t.n) - 1)))

let of_int64 n w =
  assert (n <= 6);
  { n; data = [| Int64.logand w (small_mask n) |] }

let to_int64 t =
  assert (t.n <= 6);
  t.data.(0)

let pp ppf t =
  for w = Array.length t.data - 1 downto 0 do
    Format.fprintf ppf "%016Lx" t.data.(w)
  done

(* ------------------------------------------------------------------ *)
(* Two-level covers                                                    *)

type cube = { pos : int; neg : int }

let cube_tt n c =
  let acc = ref (const n true) in
  for i = 0 to n - 1 do
    if (c.pos lsr i) land 1 = 1 then acc := logand !acc (var n i)
    else if (c.neg lsr i) land 1 = 1 then acc := logand !acc (lognot (var n i))
  done;
  !acc

let of_cubes n cubes =
  List.fold_left (fun acc c -> logor acc (cube_tt n c)) (const n false) cubes

(* Minato–Morreale ISOP: cover [lower] while staying inside [upper].
   Returns (cover, tt of cover). *)
let isop t =
  let n = t.n in
  let rec go lower upper vars =
    if equal lower (const n false) then ([], const n false)
    else
      match vars with
      | [] ->
          (* lower is a nonzero constant on the remaining space: upper must be 1 *)
          ([ { pos = 0; neg = 0 } ], const n true)
      | v :: rest ->
          if not (depends_on lower v) && not (depends_on upper v) then go lower upper rest
          else begin
            let l0 = cofactor lower v false and l1 = cofactor lower v true in
            let u0 = cofactor upper v false and u1 = cofactor upper v true in
            (* Terms that must use literal v' / v respectively. *)
            let cover0, tt0 = go (logand l0 (lognot u1)) u0 rest in
            let cover1, tt1 = go (logand l1 (lognot u0)) u1 rest in
            let lnew =
              logor
                (logand l0 (lognot tt0))
                (logand l1 (lognot tt1))
            in
            let cover2, tt2 = go lnew (logand u0 u1) rest in
            let bit = 1 lsl v in
            let cover =
              List.map (fun c -> { c with neg = c.neg lor bit }) cover0
              @ List.map (fun c -> { c with pos = c.pos lor bit }) cover1
              @ cover2
            in
            let tt =
              logor tt2
                (logor
                   (logand (lognot (var n v)) tt0)
                   (logand (var n v) tt1))
            in
            (cover, tt)
          end
  in
  let vars = List.init n (fun i -> i) in
  let cover, tt = go t t vars in
  assert (equal tt t);
  cover
