# CTest fixture script: packs a small graph into emis-csr/1 and overwrites
# the 4-byte adjacency word 4000 bytes before EOF with 0x7fffffff, a node id
# far past num_nodes. Loading the result must fail cleanly (exit 2), never
# send a round out of bounds.
execute_process(
  COMMAND ${EMIS_CLI} graph pack --graph er:n=4096,p=0.01 --seed 1 --out ${OUT}
  RESULT_VARIABLE pack_rc)
if(NOT pack_rc EQUAL 0)
  message(FATAL_ERROR "emis_cli graph pack failed (rc=${pack_rc})")
endif()
file(SIZE ${OUT} size)
math(EXPR at "${size} - 4000")
execute_process(
  COMMAND printf "\\377\\377\\377\\177"
  COMMAND dd of=${OUT} bs=1 seek=${at} conv=notrunc status=none
  RESULT_VARIABLE patch_rc)
if(NOT patch_rc EQUAL 0)
  message(FATAL_ERROR "patching ${OUT} failed (rc=${patch_rc})")
endif()
