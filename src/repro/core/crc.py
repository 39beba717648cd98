"""Checksums for image verification.

The paper's accuracy requirement (§2) is that "the exact program image is
received by sensor nodes"; TinyOS-era network programmers verified the
staged image with a 16-bit CRC before handing it to the bootloader.  We
implement CRC-16/CCITT-FALSE (the variant in the TinyOS toolchain) with
:func:`binascii.crc_hqx`, the standard library's C implementation of the
same polynomial (0x1021, unreflected, no final XOR); the CRC-16/CCITT-FALSE
variant is its 0xFFFF starting value.
"""

import binascii


def crc16_ccitt(data, initial=0xFFFF):
    """CRC-16/CCITT-FALSE of ``data`` (bytes-like)."""
    return binascii.crc_hqx(data, initial)


def crc16_incremental(chunks, initial=0xFFFF):
    """CRC over an iterable of byte chunks (images are verified segment
    by segment straight out of EEPROM, without assembling a copy)."""
    crc = initial
    for chunk in chunks:
        crc = crc16_ccitt(chunk, initial=crc)
    return crc
