# Toy 4-round XOR-rotate cipher (the examples/custom_cipher.cpp source):
# a small non-DES program for whole-run energy checks under every
# countermeasure.
.data
key:    .word 0x5a, 0x33, 0x0f, 0xc4
.secret key
state:  .word 0x11, 0x22, 0x33, 0x44
out:    .space 16
.declassified out
locals: .space 8      # round counter, loop counter

.text
main:
  la   $gp, locals
  sw   $zero, 0($gp)          # round = 0
round:
  # state[i] ^= key[i]
  sw   $zero, 4($gp)
  la   $s0, key
  la   $s1, state
mix:
  lw   $t9, 4($gp)
  sll  $t8, $t9, 2
  addu $t0, $s0, $t8
  lw   $t1, 0($t0)            # key word (secure)
  addu $t2, $s1, $t8
  lw   $t3, 0($t2)            # state word (secure after round 1)
  xor  $t4, $t1, $t3          # secure xor
  sw   $t4, 0($t2)            # secure store
  addiu $t9, $t9, 1
  sw   $t9, 4($gp)
  li   $k1, 4
  bne  $t9, $k1, mix
  # rotate: tmp = state[0]; state[i] = state[i+1]; state[3] = tmp
  lw   $t5, 0($s1)
  lw   $t6, 4($s1)
  sw   $t6, 0($s1)
  lw   $t6, 8($s1)
  sw   $t6, 4($s1)
  lw   $t6, 12($s1)
  sw   $t6, 8($s1)
  sw   $t5, 12($s1)
  lw   $t9, 0($gp)
  addiu $t9, $t9, 1
  sw   $t9, 0($gp)
  li   $k1, 4
  bne  $t9, $k1, round
  # publish the ciphertext
  la   $s2, out
  lw   $t0, 0($s1)
  sw   $t0, 0($s2)
  lw   $t0, 4($s1)
  sw   $t0, 4($s2)
  lw   $t0, 8($s1)
  sw   $t0, 8($s2)
  lw   $t0, 12($s1)
  sw   $t0, 12($s2)
  halt
