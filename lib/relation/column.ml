type data =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Dict of {
      codes : int array;
      dict : string array;
    }

type t = {
  data : data;
  valid : Bytes.t option;
}

let data_length = function
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Bools a -> Array.length a
  | Dict { codes; _ } -> Array.length codes

let length t = data_length t.data

let ty t =
  match t.data with
  | Ints _ -> Value.Tint
  | Floats _ -> Value.Tfloat
  | Bools _ -> Value.Tbool
  | Dict _ -> Value.Tstring

(* ---- validity bitmaps (bit i of byte i/8) ---- *)

let bitmap_create n = Bytes.make ((n + 7) / 8) '\000'

let bitmap_set bm i =
  let j = i lsr 3 in
  Bytes.unsafe_set bm j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bm j) lor (1 lsl (i land 7))))

let bitmap_get bm i =
  Char.code (Bytes.unsafe_get bm (i lsr 3)) land (1 lsl (i land 7)) <> 0

let all_valid t = t.valid = None

let valid_at t i =
  match t.valid with
  | None -> true
  | Some bm -> bitmap_get bm i

let check_dict codes dict =
  let d = Array.length dict in
  Array.iter
    (fun c ->
       if c < 0 || c >= d then
         invalid_arg
           (Printf.sprintf "Column.make: dictionary code %d out of range %d" c d))
    codes

let make data =
  (match data with Dict { codes; dict } -> check_dict codes dict | _ -> ());
  { data; valid = None }

let get t i =
  if not (valid_at t i) then invalid_arg "Column.get: null slot"
  else
    match t.data with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Bools a -> Value.Bool a.(i)
    | Dict { codes; dict } -> Value.Str dict.(codes.(i))

let get_opt t i = if valid_at t i then Some (get t i) else None

(* ---- construction from boxed values ---- *)

let type_mismatch expected v =
  invalid_arg
    (Printf.sprintf "Column.of_values: expected %s, got %s"
       (Value.ty_to_string expected)
       (Value.ty_to_string (Value.type_of v)))

(* dictionary-encode strings in first-appearance order; [get_s] maps a
   slot to its string (nulls encode as code 0, masked by the bitmap) *)
let encode_dict n get_s =
  let codes = Array.make n 0 in
  let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let entries = ref [] in
  let next = ref 0 in
  for i = 0 to n - 1 do
    match get_s i with
    | None -> ()
    | Some s ->
      let code =
        match Hashtbl.find_opt index s with
        | Some c -> c
        | None ->
          let c = !next in
          Hashtbl.add index s c;
          entries := s :: !entries;
          incr next;
          c
      in
      codes.(i) <- code
  done;
  let dict = Array.make !next "" in
  List.iteri (fun k s -> dict.(!next - 1 - k) <- s) !entries;
  Dict { codes; dict }

let of_values ty (vs : Value.t array) =
  let n = Array.length vs in
  let data =
    match ty with
    | Value.Tint ->
      Ints
        (Array.map
           (function Value.Int i -> i | v -> type_mismatch ty v)
           vs)
    | Value.Tfloat ->
      Floats
        (Array.map
           (function Value.Float f -> f | v -> type_mismatch ty v)
           vs)
    | Value.Tbool ->
      Bools
        (Array.map
           (function Value.Bool b -> b | v -> type_mismatch ty v)
           vs)
    | Value.Tstring ->
      encode_dict n (fun i ->
          match vs.(i) with
          | Value.Str s -> Some s
          | v -> type_mismatch ty v)
  in
  { data; valid = None }

let of_strings (ss : string array) =
  { data = encode_dict (Array.length ss) (fun i -> Some ss.(i)); valid = None }

let of_options ty (vs : Value.t option array) =
  let n = Array.length vs in
  let bm = bitmap_create n in
  let any_null = ref false in
  Array.iteri
    (fun i v ->
       match v with
       | Some _ -> bitmap_set bm i
       | None -> any_null := true)
    vs;
  if not !any_null then
    of_values ty (Array.map (function Some v -> v | None -> assert false) vs)
  else begin
    let data =
      match ty with
      | Value.Tint ->
        Ints
          (Array.init n (fun i ->
               match vs.(i) with
               | None -> 0
               | Some (Value.Int x) -> x
               | Some v -> type_mismatch ty v))
      | Value.Tfloat ->
        Floats
          (Array.init n (fun i ->
               match vs.(i) with
               | None -> 0.
               | Some (Value.Float x) -> x
               | Some v -> type_mismatch ty v))
      | Value.Tbool ->
        Bools
          (Array.init n (fun i ->
               match vs.(i) with
               | None -> false
               | Some (Value.Bool x) -> x
               | Some v -> type_mismatch ty v))
      | Value.Tstring ->
        encode_dict n (fun i ->
            match vs.(i) with
            | None -> None
            | Some (Value.Str s) -> Some s
            | Some v -> type_mismatch ty v)
    in
    { data; valid = Some bm }
  end

let to_values t =
  if not (all_valid t) then
    invalid_arg "Column.to_values: column has null slots"
  else Array.init (length t) (fun i -> get t i)

let to_options t = Array.init (length t) (fun i -> get_opt t i)

(* ---- selection-vector apply ---- *)

let gather_valid valid idx =
  match valid with
  | None -> None
  | Some bm ->
    let n = Array.length idx in
    let out = bitmap_create n in
    let any_null = ref false in
    for k = 0 to n - 1 do
      if bitmap_get bm idx.(k) then bitmap_set out k else any_null := true
    done;
    if !any_null then Some out else None

(* manual loops: [Array.map] would pay a closure call per element, and
   gathers sit on the hot edge of every selective kernel *)
let gather_ints (a : int array) idx =
  let n = Array.length idx in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather_floats (a : float array) idx =
  let n = Array.length idx in
  if n = 0 then [||]
  else begin
    let out = Array.make n a.(idx.(0)) in
    for k = 1 to n - 1 do
      out.(k) <- a.(idx.(k))
    done;
    out
  end

let gather_bools (a : bool array) idx =
  let n = Array.length idx in
  let out = Array.make n false in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather t idx =
  let data =
    match t.data with
    | Ints a -> Ints (gather_ints a idx)
    | Floats a -> Floats (gather_floats a idx)
    | Bools a -> Bools (gather_bools a idx)
    | Dict { codes; dict } ->
      let n = Array.length idx in
      let d = Array.length dict in
      if n >= d then Dict { codes = gather_ints codes idx; dict }
      else begin
        (* selective filter: compact the dictionary so dropped entries
           stop counting toward encoded size *)
        let remap = Array.make d (-1) in
        let out_codes = Array.make n 0 in
        let entries = ref [] in
        let next = ref 0 in
        for k = 0 to n - 1 do
          let c = codes.(idx.(k)) in
          let c' =
            if remap.(c) >= 0 then remap.(c)
            else begin
              let c' = !next in
              remap.(c) <- c';
              entries := dict.(c) :: !entries;
              incr next;
              c'
            end
          in
          out_codes.(k) <- c'
        done;
        let out_dict = Array.make !next "" in
        List.iteri (fun k s -> out_dict.(!next - 1 - k) <- s) !entries;
        Dict { codes = out_codes; dict = out_dict }
      end
  in
  { data; valid = gather_valid t.valid idx }

(* ---- concatenation (chunk reassembly) ---- *)

let concat_valid cols total =
  if List.for_all all_valid cols then None
  else begin
    let bm = bitmap_create total in
    let off = ref 0 in
    List.iter
      (fun c ->
         let n = length c in
         for i = 0 to n - 1 do
           if valid_at c i then bitmap_set bm (!off + i)
         done;
         off := !off + n)
      cols;
    Some bm
  end

let concat cols =
  match cols with
  | [] -> invalid_arg "Column.concat: empty list"
  | [ c ] -> c
  | first :: _ ->
    let total = List.fold_left (fun s c -> s + length c) 0 cols in
    let data =
      match first.data with
      | Ints _ ->
        let out = Array.make total 0 in
        let off = ref 0 in
        List.iter
          (fun c ->
             match c.data with
             | Ints a ->
               Array.blit a 0 out !off (Array.length a);
               off := !off + Array.length a
             | _ -> invalid_arg "Column.concat: mixed column types")
          cols;
        Ints out
      | Floats _ ->
        let out = Array.make total 0. in
        let off = ref 0 in
        List.iter
          (fun c ->
             match c.data with
             | Floats a ->
               Array.blit a 0 out !off (Array.length a);
               off := !off + Array.length a
             | _ -> invalid_arg "Column.concat: mixed column types")
          cols;
        Floats out
      | Bools _ ->
        let out = Array.make total false in
        let off = ref 0 in
        List.iter
          (fun c ->
             match c.data with
             | Bools a ->
               Array.blit a 0 out !off (Array.length a);
               off := !off + Array.length a
             | _ -> invalid_arg "Column.concat: mixed column types")
          cols;
        Bools out
      | Dict _ ->
        (* re-encode codes against a merged dictionary, first appearance
           across the concatenation *)
        let out_codes = Array.make total 0 in
        let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
        let entries = ref [] in
        let next = ref 0 in
        let off = ref 0 in
        List.iter
          (fun c ->
             match c.data with
             | Dict { codes; dict } ->
               let remap = Array.make (Array.length dict) (-1) in
               Array.iteri
                 (fun i code ->
                    if c.valid = None || valid_at c i then begin
                      let m =
                        if remap.(code) >= 0 then remap.(code)
                        else begin
                          let s = dict.(code) in
                          let m =
                            match Hashtbl.find_opt index s with
                            | Some m -> m
                            | None ->
                              let m = !next in
                              Hashtbl.add index s m;
                              entries := s :: !entries;
                              incr next;
                              m
                          in
                          remap.(code) <- m;
                          m
                        end
                      in
                      out_codes.(!off + i) <- m
                    end)
                 codes;
               off := !off + Array.length codes
             | _ -> invalid_arg "Column.concat: mixed column types")
          cols;
        let dict = Array.make !next "" in
        List.iteri (fun k s -> dict.(!next - 1 - k) <- s) !entries;
        Dict { codes = out_codes; dict }
    in
    { data; valid = concat_valid cols total }

let append a b = concat [ a; b ]

(* ---- comparison (Value.compare same-type semantics) ---- *)

let compare_at t i j =
  match t.valid with
  | Some bm when not (bitmap_get bm i && bitmap_get bm j) -> (
    match bitmap_get bm i, bitmap_get bm j with
    | false, false -> 0
    | false, true -> -1
    | true, false -> 1
    | true, true -> assert false)
  | _ -> (
    match t.data with
    | Ints a -> Int.compare a.(i) a.(j)
    | Floats a -> Float.compare a.(i) a.(j)
    | Bools a -> Bool.compare a.(i) a.(j)
    | Dict { codes; dict } -> String.compare dict.(codes.(i)) dict.(codes.(j)))

(* ---- modeled encoded size ---- *)

let encoded_bytes t =
  let n = length t in
  let data_bytes =
    match t.data with
    | Ints _ | Floats _ -> 8 * n
    | Bools _ -> n
    | Dict { codes; dict } ->
      Array.fold_left
        (fun acc s -> acc + String.length s + 1)
        (4 * Array.length codes)
        dict
  in
  let valid_bytes = match t.valid with None -> 0 | Some bm -> Bytes.length bm in
  data_bytes + valid_bytes

let gathered_bytes t ~rows =
  match t.data with
  | Ints _ | Floats _ -> 8 * rows
  | Bools _ -> rows
  | Dict { dict; _ } ->
    if rows < Array.length dict then
      invalid_arg "Column.gathered_bytes: the gather would compact";
    Array.fold_left (fun acc s -> acc + String.length s + 1) (4 * rows) dict

let dictionary_size t =
  match t.data with
  | Dict { dict; _ } -> Some (Array.length dict)
  | _ -> None

(* ---- builder ---- *)

module Builder = struct
  type buf =
    | B_int of int array ref
    | B_float of float array ref
    | B_bool of bool array ref
    | B_str of {
        codes : int array ref;
        index : (string, int) Hashtbl.t;
        mutable entries : string list;
        mutable next : int;
      }

  type t = {
    buf : buf;
    bty : Value.ty;
    mutable len : int;
    mutable nulls : int list;  (* null slot indexes, reversed *)
  }

  let create ?(capacity = 16) bty =
    let capacity = max capacity 1 in
    let buf =
      match bty with
      | Value.Tint -> B_int (ref (Array.make capacity 0))
      | Value.Tfloat -> B_float (ref (Array.make capacity 0.))
      | Value.Tbool -> B_bool (ref (Array.make capacity false))
      | Value.Tstring ->
        B_str
          { codes = ref (Array.make capacity 0);
            index = Hashtbl.create 16; entries = []; next = 0 }
    in
    { buf; bty; len = 0; nulls = [] }

  let length t = t.len

  let grow_to arr fill wanted =
    let cap = Array.length !arr in
    if wanted > cap then begin
      let bigger = Array.make (max wanted (2 * cap)) fill in
      Array.blit !arr 0 bigger 0 cap;
      arr := bigger
    end

  let push_raw t v =
    let i = t.len in
    (match t.buf, v with
     | B_int a, Some (Value.Int x) ->
       grow_to a 0 (i + 1);
       !a.(i) <- x
     | B_int a, None -> grow_to a 0 (i + 1)
     | B_float a, Some (Value.Float x) ->
       grow_to a 0. (i + 1);
       !a.(i) <- x
     | B_float a, None -> grow_to a 0. (i + 1)
     | B_bool a, Some (Value.Bool x) ->
       grow_to a false (i + 1);
       !a.(i) <- x
     | B_bool a, None -> grow_to a false (i + 1)
     | B_str b, Some (Value.Str s) ->
       grow_to b.codes 0 (i + 1);
       let code =
         match Hashtbl.find_opt b.index s with
         | Some c -> c
         | None ->
           let c = b.next in
           Hashtbl.add b.index s c;
           b.entries <- s :: b.entries;
           b.next <- c + 1;
           c
       in
       !(b.codes).(i) <- code
     | B_str b, None -> grow_to b.codes 0 (i + 1)
     | _, Some v ->
       invalid_arg
         (Printf.sprintf "Column.Builder.push: expected %s, got %s"
            (Value.ty_to_string t.bty)
            (Value.ty_to_string (Value.type_of v))));
    if v = None then t.nulls <- i :: t.nulls;
    t.len <- i + 1

  let push t v = push_raw t (Some v)

  let push_opt t v = push_raw t v

  let to_column t =
    let n = t.len in
    let data =
      match t.buf with
      | B_int a -> Ints (Array.sub !a 0 n)
      | B_float a -> Floats (Array.sub !a 0 n)
      | B_bool a -> Bools (Array.sub !a 0 n)
      | B_str b ->
        let dict = Array.make b.next "" in
        List.iteri (fun k s -> dict.(b.next - 1 - k) <- s) b.entries;
        Dict { codes = Array.sub !(b.codes) 0 n; dict }
    in
    let valid =
      match t.nulls with
      | [] -> None
      | nulls ->
        let bm = bitmap_create n in
        for i = 0 to n - 1 do
          bitmap_set bm i
        done;
        (* clear the null slots *)
        let clear i =
          let j = i lsr 3 in
          Bytes.set bm j
            (Char.chr
               (Char.code (Bytes.get bm j) land lnot (1 lsl (i land 7))))
        in
        List.iter clear nulls;
        Some bm
    in
    { data; valid }
end

(* ---- columnar execution gate ---- *)

let parse_flag s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "false" | "off" | "no" -> Some false
  | "1" | "true" | "on" | "yes" -> Some true
  | _ -> None

let env_enabled () =
  Option.bind (Sys.getenv_opt "MUSKETEER_COLUMNAR") parse_flag

let override : bool option ref = ref None
let scoped : bool option ref = ref None

let set_enabled v = override := v

let enabled () =
  match !scoped with
  | Some v -> v
  | None -> (
    match !override with
    | Some v -> v
    | None -> ( match env_enabled () with Some v -> v | None -> true))

let with_enabled v f =
  let old = !scoped in
  scoped := Some v;
  Fun.protect ~finally:(fun () -> scoped := old) f
