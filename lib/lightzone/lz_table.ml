open Lz_mem

type t = { id : int; asid : int; root_real : int; root_fake : int }

let table_ro = Stage2.{ read = true; write = false; exec = false }

let new_table_frame phys fake ~s2_root =
  let real = Phys.alloc_frame phys in
  let fake = Fake_phys.assign fake ~real in
  Stage2.map_page phys ~root:s2_root ~ipa:fake ~pa:real table_ro;
  (real, fake)

let create phys fake ~s2_root ~id ~asid =
  let root_real, root_fake = new_table_frame phys fake ~s2_root in
  { id; asid; root_real; root_fake }

let ttbr t = Mmu.ttbr_value ~root:t.root_fake ~asid:t.asid

let index ~level va = (va lsr (39 - (9 * level))) land 0x1FF

(* Descend via real frame addresses, writing fake addresses into the
   descriptors the hardware walker (and the process) will see. *)
let rec descend phys fake ~s2_root ~table_real ~level ~va =
  if level = 3 then table_real + (8 * index ~level va)
  else
    let pte_addr = table_real + (8 * index ~level va) in
    let pte = Phys.read64 phys pte_addr in
    let next_real =
      if Pte.is_table ~level pte then
        match Fake_phys.real_of_fake fake (Pte.out_addr pte) with
        | Some real -> real
        | None -> failwith "Lz_table: descriptor with unknown fake address"
      else begin
        let real, next_fake = new_table_frame phys fake ~s2_root in
        Phys.write64 phys pte_addr (Pte.make_s1_table ~pa:next_fake);
        real
      end
    in
    descend phys fake ~s2_root ~table_real:next_real ~level:(level + 1) ~va

let map_page phys fake ~s2_root t ~va ~fake_pa attrs =
  let pte_addr =
    descend phys fake ~s2_root ~table_real:t.root_real ~level:0 ~va
  in
  Phys.write64 phys pte_addr (Pte.make_s1_page ~pa:fake_pa attrs)

(* The next level's real frame, if [table_real]'s descriptor for [va]
   at [level] names a table. *)
let next_table phys fake ~table_real ~level ~va =
  let pte = Phys.read64 phys (table_real + (8 * index ~level va)) in
  if Pte.is_table ~level pte then
    Fake_phys.real_of_fake fake (Pte.out_addr pte)
  else None

let rec leaf_pte_addr phys fake ~table_real ~level ~va =
  if level = 3 then
    let pte_addr = table_real + (8 * index ~level va) in
    if Pte.valid (Phys.read64 phys pte_addr) then Some pte_addr else None
  else
    match next_table phys fake ~table_real ~level ~va with
    | Some real ->
        leaf_pte_addr phys fake ~table_real:real ~level:(level + 1) ~va
    | None -> None

(* Fake address of the level-3 table page whose entries translate
   [va] — the page a PTE-poking attack would try to alias and write.
   Table frames are stage-2-mapped read-only, so handing this address
   to an adversarial scenario must still end in a stage-2 permission
   fault. *)
let rec last_level phys fake ~table_real ~level ~va =
  if level = 3 then Fake_phys.fake_of_real fake table_real
  else
    match next_table phys fake ~table_real ~level ~va with
    | Some real ->
        last_level phys fake ~table_real:real ~level:(level + 1) ~va
    | None -> None

let last_level_table_fake phys fake t ~va =
  last_level phys fake ~table_real:t.root_real ~level:0 ~va

let unmap phys fake t ~va =
  match leaf_pte_addr phys fake ~table_real:t.root_real ~level:0 ~va with
  | Some a -> Phys.write64 phys a 0
  | None -> ()

let mapped phys fake t ~va =
  leaf_pte_addr phys fake ~table_real:t.root_real ~level:0 ~va <> None

(* Children before their parent, in descriptor-index order; zero
   descriptors are never tables, so only the nonzero words are
   visited. [destroy] frees in this order and [frames] counts it. *)
let rec fold_tables phys fake f ~table_real ~level acc =
  let acc =
    if level < 3 then
      fold_children phys fake f ~level acc (Phys.nonzero_words phys table_real)
    else acc
  in
  f table_real acc

and fold_children phys fake f ~level acc = function
  | [] -> acc
  | pte :: ptes ->
      let acc =
        if Pte.is_table ~level pte then
          match Fake_phys.real_of_fake fake (Pte.out_addr pte) with
          | Some real ->
              fold_tables phys fake f ~table_real:real ~level:(level + 1) acc
          | None -> acc
        else acc
      in
      fold_children phys fake f ~level acc ptes

let frames phys fake t =
  fold_tables phys fake (fun _ n -> n + 1) ~table_real:t.root_real ~level:0 0

let destroy phys fake ~s2_root t =
  fold_tables phys fake
    (fun table_real () ->
      Stage2.unmap phys ~root:s2_root
        ~ipa:(match Fake_phys.fake_of_real fake table_real with
             | Some f -> f
             | None -> table_real);
      Phys.free_frame phys table_real)
    ~table_real:t.root_real ~level:0 ()
